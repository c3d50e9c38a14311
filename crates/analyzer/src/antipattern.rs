//! The anti-pattern lint catalog and the verifier-gated auto-fixer.
//!
//! "Cold-Start Anti-Patterns and Refactorings in Serverless Systems"
//! catalogs the application-level mistakes that dominate real FaaS latency;
//! this module turns that catalog into executable lints over the
//! application model, each paired with a mechanical [`SuggestedFix`]:
//!
//! | lint id                    | fix action                              |
//! |----------------------------|-----------------------------------------|
//! | `eager-monolithic-init`    | defer the heavy, partially-used package |
//! | `oversized-dependency-tree`| defer the never-used module subtree     |
//! | `init-in-handler`          | restore the eager import                |
//! | `missing-connection-reuse` | advisory: hoist the client to module scope |
//! | `unused-heavy-library`     | defer the whole library                 |
//! | `handler-hot-import`       | restore the eager import                |
//!
//! Costs are ranked through a per-runtime [`RuntimeProfile`] (stage-profiler
//! style: per-module import overhead, init-cost scaling, lazy-load penalty,
//! connection setup), so the same lint can be a warning under CPython and
//! informational under Node. [`auto_fix`] applies only fixes the deferral-
//! safety verifier approves, re-runs the analyzer to prove convergence (no
//! new errors, fixed lint instances gone) and keeps a fix only when the
//! modeled cold start does not regress; `slimstart-core`'s `AutoFixStage`
//! then re-measures the result through the simulation.

use std::collections::BTreeSet;

use slimstart_appmodel::function::{Stmt, StmtKind};
use slimstart_appmodel::library::Package;
use slimstart_appmodel::source::{function_uses_package, CodeEdit};
use slimstart_appmodel::{Application, FunctionId, ImportMode, ModuleId};
use slimstart_faaslight::reachability::handlers_reaching_package;

use crate::context::{AnalysisContext, ModuleIndex};
use crate::diagnostic::{Diagnostic, Severity, Span};
use crate::passes::{covers, observed_fraction, AnalysisPass, Analyzer};
use crate::safety::boundary_imports;
use crate::usage::ObservedUsage;

// ------------------------------------------------------------ cost model

/// Per-runtime cold-start cost profile: how expensive module imports,
/// top-level init, lazy loads and connection setup are on this runtime.
/// The same structural finding ranks differently per runtime — a 100 ms
/// package is a warning on CPython and noise on a JVM whose baseline cold
/// start dwarfs it.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeProfile {
    /// Runtime name (`python`, `nodejs`, `java`).
    pub name: &'static str,
    /// Fixed per-module import machinery overhead, ms (finding/compiling/
    /// executing one module file).
    pub per_module_import_ms: f64,
    /// Multiplier applied to modeled top-level init costs.
    pub init_cost_factor: f64,
    /// Penalty factor (≥ 1) for loading a module lazily inside a request
    /// instead of during init (cold caches, no snapshot reuse).
    pub lazy_load_penalty: f64,
    /// Cost of establishing one client/connection, ms.
    pub connection_setup_ms: f64,
    /// Modeled cost at or above which a finding is promoted from info to
    /// warning on this runtime.
    pub warn_cost_ms: f64,
}

impl RuntimeProfile {
    /// CPython: moderate import machinery, every init ms counts.
    pub fn python() -> RuntimeProfile {
        RuntimeProfile {
            name: "python",
            per_module_import_ms: 0.8,
            init_cost_factor: 1.0,
            lazy_load_penalty: 1.15,
            connection_setup_ms: 45.0,
            warn_cost_ms: 100.0,
        }
    }

    /// Node.js: cheap module loads, small cold starts — small absolute
    /// costs already matter.
    fn nodejs() -> RuntimeProfile {
        RuntimeProfile {
            name: "nodejs",
            per_module_import_ms: 0.25,
            init_cost_factor: 0.6,
            lazy_load_penalty: 1.05,
            connection_setup_ms: 30.0,
            warn_cost_ms: 50.0,
        }
    }

    /// JVM: expensive class loading, but a baseline cold start so large
    /// that only big findings are worth warning about.
    pub fn java() -> RuntimeProfile {
        RuntimeProfile {
            name: "java",
            per_module_import_ms: 2.0,
            init_cost_factor: 1.8,
            lazy_load_penalty: 1.4,
            connection_setup_ms: 120.0,
            warn_cost_ms: 250.0,
        }
    }

    /// Looks up a profile by runtime name.
    pub fn by_name(name: &str) -> Option<RuntimeProfile> {
        match name {
            "python" => Some(RuntimeProfile::python()),
            "nodejs" | "node" => Some(RuntimeProfile::nodejs()),
            "java" => Some(RuntimeProfile::java()),
            _ => None,
        }
    }

    /// Severity for a finding whose modeled cost is `cost_ms`.
    fn severity_for(&self, cost_ms: f64) -> Severity {
        if cost_ms >= self.warn_cost_ms {
            Severity::Warning
        } else {
            Severity::Info
        }
    }
}

impl Default for RuntimeProfile {
    fn default() -> Self {
        RuntimeProfile::python()
    }
}

/// Thresholds for the anti-pattern passes.
#[derive(Debug, Clone, PartialEq)]
pub struct AntipatternConfig {
    /// The runtime cost profile findings are ranked against.
    pub runtime: RuntimeProfile,
    /// `eager-monolithic-init` fires only when total modeled eager init
    /// meets this floor, ms.
    pub monolithic_init_ms: f64,
    /// … and flags packages contributing at least this share of it.
    pub monolithic_share: f64,
    /// `oversized-dependency-tree` flags unused eager subtrees with at
    /// least this many modules.
    pub oversized_modules: usize,
    /// `missing-connection-reuse` flags runs of at least this many
    /// consecutive identical library calls per invocation.
    pub redundant_calls: usize,
    /// `unused-heavy-library` flags unused libraries whose modeled eager
    /// cost meets this floor, ms.
    pub heavy_library_ms: f64,
    /// `handler-hot-import` flags deferred packages observed in at least
    /// this fraction of profiled invocations.
    pub hot_fraction: f64,
}

impl Default for AntipatternConfig {
    fn default() -> Self {
        AntipatternConfig {
            runtime: RuntimeProfile::default(),
            monolithic_init_ms: 250.0,
            monolithic_share: 0.05,
            oversized_modules: 64,
            redundant_calls: 4,
            heavy_library_ms: 80.0,
            hot_fraction: 0.5,
        }
    }
}

impl AntipatternConfig {
    /// Swaps in a different runtime cost profile.
    #[must_use]
    pub fn with_runtime(mut self, runtime: RuntimeProfile) -> Self {
        self.runtime = runtime;
        self
    }
}

// ------------------------------------------------------------- estimator

/// Modeled mean cold-start cost over all handlers, ms, under a runtime
/// profile: eager init (scaled, plus per-module import overhead) plus the
/// penalized cost of deferred closures the handler statically uses. This
/// is the ranking and regression-gating metric of [`auto_fix`]; the
/// simulation provides the authoritative measurement afterwards.
pub fn estimated_cold_start_ms(app: &Application, rt: &RuntimeProfile) -> f64 {
    estimate(&ModuleIndex::build(app), app, rt)
}

/// [`estimated_cold_start_ms`] against an index built from `app`.
fn estimate(index: &ModuleIndex, app: &Application, rt: &RuntimeProfile) -> f64 {
    let handlers = app.handlers();
    if handlers.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (h, root) in handlers.iter().zip(index.roots()) {
        let eager = index.reach(app, *root);
        let mut loaded: Vec<bool> = (0..app.modules().len())
            .map(|i| eager.contains(ModuleId::from_index(i)))
            .collect();
        let mut cost = 0.0;
        for (i, m) in app.modules().iter().enumerate() {
            if loaded[i] {
                cost +=
                    m.init_cost().as_millis_f64() * rt.init_cost_factor + rt.per_module_import_ms;
            }
        }
        // Deferred imports fire at first use inside the request; iterate to
        // a fixpoint so chained deferrals (a lazy load whose importer only
        // appears through an earlier lazy load) are charged too.
        loop {
            let mut changed = false;
            for (importer, decl) in app.all_imports() {
                if !decl.mode.is_deferred()
                    || !loaded[importer.index()]
                    || loaded[decl.target.index()]
                {
                    continue;
                }
                let tname = app.module(decl.target).name();
                if !function_uses_package(app, h.function(), tname) {
                    continue;
                }
                let lazy = index.reach(app, decl.target);
                let mut lazy_cost = 0.0;
                for (i, m) in app.modules().iter().enumerate() {
                    if lazy.contains(ModuleId::from_index(i)) && !loaded[i] {
                        lazy_cost += m.init_cost().as_millis_f64() * rt.init_cost_factor
                            + rt.per_module_import_ms;
                        loaded[i] = true;
                    }
                }
                cost += lazy_cost * rt.lazy_load_penalty;
                changed = true;
            }
            if !changed {
                break;
            }
        }
        total += cost;
    }
    total / handlers.len() as f64
}

/// Modeled cost of loading every member of `members` that is flagged in
/// the per-module bitmap.
fn member_cost(app: &Application, members: &[ModuleId], rt: &RuntimeProfile) -> f64 {
    members
        .iter()
        .map(|m| {
            app.module(*m).init_cost().as_millis_f64() * rt.init_cost_factor
                + rt.per_module_import_ms
        })
        .sum()
}

/// The members of `package` in the order the package-cost lints add them
/// up: depth first from the package, each package's own module before its
/// children's subtrees, and the children taken off a stack that received
/// them in [`children`](slimstart_appmodel::library::PackageTree::children)
/// order, so the child whose first member was added last comes first.
/// [`member_cost`] sums in f64, so another order (package-tree order, say)
/// changes the last bits of some sums, and with them the milliseconds the
/// lints print.
fn walk_members(ctx: &AnalysisContext<'_>, package: Package<'_>) -> Vec<ModuleId> {
    let (app, tree) = (ctx.app, ctx.index.tree());
    let mut out = Vec::new();
    let mut stack = vec![package];
    while let Some(package) = stack.pop() {
        let own = tree.members(&package).first();
        out.extend(own.filter(|m| app.module(**m).name() == package.path()));
        stack.extend(tree.children(app, &package));
    }
    out
}

// ------------------------------------------------------------------ fixes

/// The mechanical action a [`SuggestedFix`] performs on the model.
#[derive(Debug, Clone, PartialEq)]
pub enum FixAction {
    /// Flip every global boundary import into `package` to deferred (the
    /// optimizer's rewrite, driven by a lint instead of a profile).
    DeferPackage {
        /// Dotted path of the package to defer.
        package: String,
    },
    /// Flip an existing deferred import back to a global (eager) import.
    RestoreEager {
        /// Dotted name of the importing module.
        importer: String,
        /// Dotted name of the imported module.
        target: String,
    },
    /// A source-level refactoring the model cannot perform mechanically
    /// (e.g. hoisting a client to module scope); the edit is advisory.
    Advisory,
}

impl FixAction {
    /// Whether the action can mutate the model at all (advisory fixes
    /// cannot).
    pub fn is_applicable(&self) -> bool {
        !matches!(self, FixAction::Advisory)
    }

    /// Stable dedup key: two findings proposing the same action collapse
    /// into one application.
    fn key(&self) -> String {
        match self {
            FixAction::DeferPackage { package } => format!("defer:{package}"),
            FixAction::RestoreEager { importer, target } => format!("eager:{importer}->{target}"),
            FixAction::Advisory => "advisory".to_string(),
        }
    }

    /// Human-readable description of the action.
    pub fn describe(&self) -> String {
        match self {
            FixAction::DeferPackage { package } => format!("defer `{package}`"),
            FixAction::RestoreEager { importer, target } => {
                format!("restore eager import of `{target}` in `{importer}`")
            }
            FixAction::Advisory => "advisory refactoring".to_string(),
        }
    }

    /// Applies the action to `app`. Returns `false` for a no-op (advisory
    /// fixes, stale names, already-applied rewrites).
    fn apply(&self, app: &mut Application) -> bool {
        match self {
            FixAction::DeferPackage { package } => {
                let boundary = boundary_imports(app, package);
                if boundary.is_empty() {
                    return false;
                }
                for (importer, target, _) in boundary {
                    app.set_import_mode(importer, target, ImportMode::Deferred);
                }
                true
            }
            FixAction::RestoreEager { importer, target } => {
                let (Some(i), Some(t)) = (app.module_by_name(importer), app.module_by_name(target))
                else {
                    return false;
                };
                let deferred = app
                    .imports_of(i)
                    .iter()
                    .any(|d| d.target == t && d.mode.is_deferred());
                deferred && app.set_import_mode(i, t, ImportMode::Global)
            }
            FixAction::Advisory => false,
        }
    }
}

/// A lint's paired refactoring: the model-level action, the projected
/// source edit, and the modeled saving under the configured runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedFix {
    /// The lint this fix belongs to.
    pub lint_id: &'static str,
    /// The model-level rewrite.
    pub action: FixAction,
    /// The projected source-level edit (what a human would commit).
    pub edit: CodeEdit,
    /// Modeled mean cold-start saving if applied, ms (may be negative for
    /// fixes that trade init for request latency).
    pub estimated_saving_ms: f64,
}

/// One anti-pattern finding: the diagnostic plus its paired fix.
#[derive(Debug, Clone, PartialEq)]
pub struct AntipatternFinding {
    /// The rendered diagnostic (its `suggestion` carries the fix's edit).
    pub diagnostic: Diagnostic,
    /// The paired fix.
    pub fix: SuggestedFix,
}

/// Modeled saving of applying `action` to the context's application:
/// estimator delta against a scratch clone.
fn saving_of(ctx: &AnalysisContext<'_>, action: &FixAction, rt: &RuntimeProfile) -> f64 {
    let mut scratch = ctx.app.clone();
    if !action.apply(&mut scratch) {
        return 0.0;
    }
    estimate(&ctx.index, ctx.app, rt) - estimated_cold_start_ms(&scratch, rt)
}

fn finding(
    lint_id: &'static str,
    severity: Severity,
    span: Span,
    message: String,
    action: FixAction,
    edit: CodeEdit,
    estimated_saving_ms: f64,
) -> AntipatternFinding {
    AntipatternFinding {
        diagnostic: Diagnostic {
            lint_id,
            severity,
            span,
            message,
            suggestion: Some(edit.clone()),
        },
        fix: SuggestedFix {
            lint_id,
            action,
            edit,
            estimated_saving_ms,
        },
    }
}

/// The edit the deferral rewrite would commit at the first boundary import
/// of `package`, when its deferral is proven safe and flips anything.
fn defer_edit(ctx: &AnalysisContext<'_>, package: &str) -> Option<(Span, CodeEdit)> {
    let app = ctx.app;
    let boundary = ctx.index.deferral_boundary(app, package).ok()?;
    let &(importer, target, line) = boundary.first()?;
    let file = app.module(importer).file().to_string();
    let tname = app.module(target).name();
    Some((
        Span::new(file.clone(), line),
        CodeEdit {
            file,
            line,
            before: format!("import {tname}"),
            after: format!("# import {tname}  # deferred by slimstart"),
            inserted: format!("import {tname} at its first use site (profile-guided deferral)"),
        },
    ))
}

/// The edit restoring a deferred import to eager.
fn restore_edit(app: &Application, importer: ModuleId, target: ModuleId, line: u32) -> CodeEdit {
    let tname = app.module(target).name();
    CodeEdit {
        file: app.module(importer).file().to_string(),
        line,
        before: format!("# import {tname}  # line {line} (deferred by slimstart)"),
        after: format!("import {tname}  # line {line}"),
        inserted: "eager import restored — the load belongs in init, not the request".to_string(),
    }
}

// -------------------------------------------------------------- detectors

/// `eager-monolithic-init`: the application's init is dominated by one
/// eager package that at least one handler never needs — classic
/// monolithic initialization, fixed by deferring the package's boundary
/// imports.
fn detect_eager_monolithic(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let app = ctx.app;
    let rt = &cfg.runtime;
    let eager = ctx.eager_closure_all_handlers();
    let eager_members: Vec<ModuleId> = (0..app.modules().len())
        .filter(|i| eager[*i])
        .map(ModuleId::from_index)
        .collect();
    let total = member_cost(app, &eager_members, rt);
    if total < cfg.monolithic_init_ms {
        return Vec::new();
    }
    let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
    let mut out = Vec::new();
    let tree = ctx.index.tree();
    let mut claimed: Vec<&str> = Vec::new();
    for package in tree.packages(app) {
        let path = package.path();
        if claimed.iter().any(|c| covers(c, path)) {
            continue;
        }
        let modules = tree.members(&package);
        if modules.is_empty()
            || !modules.iter().all(|m| eager[m.index()])
            || !modules.iter().all(|m| app.module(*m).library().is_some())
        {
            continue;
        }
        let pkg_cost = member_cost(app, &walk_members(ctx, package), rt);
        if pkg_cost < cfg.monolithic_share * total {
            continue;
        }
        let unused = handler_fns
            .iter()
            .filter(|f| !function_uses_package(app, **f, path))
            .count();
        if unused == 0 {
            continue;
        }
        let Some((span, edit)) = defer_edit(ctx, path) else {
            continue;
        };
        claimed.push(path);
        let action = FixAction::DeferPackage {
            package: path.to_string(),
        };
        let saving = saving_of(ctx, &action, rt);
        out.push(finding(
            "eager-monolithic-init",
            rt.severity_for(pkg_cost),
            span,
            format!(
                "monolithic init: `{path}` contributes {:.1} ms of {:.1} ms modeled cold-start \
                 init ({}), but {unused} of {} handler(s) never use it",
                pkg_cost,
                total,
                rt.name,
                handler_fns.len()
            ),
            action,
            edit,
            saving,
        ));
    }
    out
}

/// `oversized-dependency-tree`: an eagerly-loaded subtree of many modules
/// that no handler's static call graph reaches at all — dead weight on
/// every cold start, fixed by deferring the subtree at its root.
fn detect_oversized_tree(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let app = ctx.app;
    let rt = &cfg.runtime;
    let eager = ctx.eager_closure_all_handlers();
    let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
    let mut out = Vec::new();
    let tree = ctx.index.tree();
    let mut claimed: Vec<&str> = Vec::new();
    for package in tree.packages(app) {
        let path = package.path();
        if claimed.iter().any(|c| covers(c, path)) {
            continue;
        }
        let modules = tree.members(&package);
        if modules.len() < cfg.oversized_modules
            || !modules.iter().all(|m| eager[m.index()])
            || !modules.iter().all(|m| app.module(*m).library().is_some())
        {
            continue;
        }
        if handler_fns
            .iter()
            .any(|f| function_uses_package(app, *f, path))
        {
            continue;
        }
        let Some((span, edit)) = defer_edit(ctx, path) else {
            continue;
        };
        claimed.push(path);
        let cost = member_cost(app, &walk_members(ctx, package), rt);
        let action = FixAction::DeferPackage {
            package: path.to_string(),
        };
        let saving = saving_of(ctx, &action, rt);
        out.push(finding(
            "oversized-dependency-tree",
            rt.severity_for(cost),
            span,
            format!(
                "oversized dependency tree: `{path}` pulls {} modules ({:.1} ms, {}) into every \
                 cold start, yet no handler statically reaches it",
                modules.len(),
                cost,
                rt.name
            ),
            action,
            edit,
            saving,
        ));
    }
    out
}

/// `init-in-handler`: a deferred import whose target *every* handler's
/// static call graph reaches — the lazy load provably runs inside the
/// request on every fresh container, so the initialization belongs back
/// in init. Detection uses the per-entry FaaSLight call-graph query.
fn detect_init_in_handler(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let app = ctx.app;
    let rt = &cfg.runtime;
    let eager = ctx.eager_closure_all_handlers();
    let n_handlers = app.handlers().len();
    let mut out = Vec::new();
    for (importer, decl) in app.all_imports() {
        if !decl.mode.is_deferred() || eager[decl.target.index()] {
            continue;
        }
        let tname = app.module(decl.target).name().to_string();
        if handlers_reaching_package(app, &tname) < n_handlers {
            continue;
        }
        let action = FixAction::RestoreEager {
            importer: app.module(importer).name().to_string(),
            target: tname.clone(),
        };
        // Restoring the edge must not close a global-import cycle.
        let mut probe = app.clone();
        if !action.apply(&mut probe) || probe.validate().is_err() {
            continue;
        }
        let lazy = ctx.index.reach(app, decl.target);
        let members: Vec<ModuleId> = (0..app.modules().len())
            .map(ModuleId::from_index)
            .filter(|m| lazy.contains(*m) && !eager[m.index()])
            .collect();
        let cost = member_cost(app, &members, rt) * rt.lazy_load_penalty;
        let saving = saving_of(ctx, &action, rt);
        out.push(finding(
            "init-in-handler",
            rt.severity_for(cost),
            Span::new(app.module(importer).file(), decl.line),
            format!(
                "init-in-handler: deferred import of `{tname}` loads inside the request on \
                 every fresh container — all {n_handlers} handler(s) statically reach it \
                 (~{cost:.1} ms at first invocation, {})",
                rt.name
            ),
            action,
            restore_edit(app, importer, decl.target, decl.line),
            saving,
        ));
    }
    out
}

/// `missing-connection-reuse`: a handler-reachable function re-creates the
/// same library client several times per invocation (consecutive identical
/// calls into a library module). The fix is advisory — hoist the client to
/// module scope — since function bodies are immutable in the model.
fn detect_missing_connection_reuse(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let app = ctx.app;
    let rt = &cfg.runtime;
    let analysis = slimstart_faaslight::StaticAnalysis::analyze(app);
    let mut out = Vec::new();
    for (fi, func) in app.functions().iter().enumerate() {
        if !analysis.is_reachable(FunctionId::from_index(fi)) {
            continue;
        }
        let mut runs: Vec<(FunctionId, u32, usize)> = Vec::new();
        collect_call_runs(func.body(), &mut runs);
        for (target, line, count) in runs {
            if count < cfg.redundant_calls {
                continue;
            }
            let callee = app.function(target);
            let callee_module = app.module(callee.module());
            if callee_module.library().is_none() {
                continue;
            }
            let cost = (count - 1) as f64 * rt.connection_setup_ms;
            let file = app.module(func.module()).file().to_string();
            out.push(finding(
                "missing-connection-reuse",
                rt.severity_for(cost),
                Span::new(file.clone(), line),
                format!(
                    "missing connection reuse: `{}` calls `{}.{}()` {count}x per invocation \
                     (~{cost:.0} ms of repeated setup, {}); reuse one client",
                    func.name(),
                    callee_module.name(),
                    callee.name(),
                    rt.name
                ),
                FixAction::Advisory,
                CodeEdit {
                    file,
                    line,
                    before: format!(
                        "{}.{}()  # repeated {count}x from line {line}",
                        callee_module.name(),
                        callee.name()
                    ),
                    after: format!(
                        "client = {}.{}()  # once, at module scope",
                        callee_module.name(),
                        callee.name()
                    ),
                    inserted: "reuse the module-scope client inside the handler body".to_string(),
                },
                cost,
            ));
        }
    }
    out
}

/// Collects maximal runs of consecutive calls to the same target:
/// `(target, first line, length)`. Branch bodies are scanned as their own
/// statement sequences.
fn collect_call_runs(stmts: &[Stmt], out: &mut Vec<(FunctionId, u32, usize)>) {
    let mut run: Option<(FunctionId, u32, usize)> = None;
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Call(site) => match &mut run {
                Some((t, _, n)) if *t == site.target => *n += 1,
                _ => {
                    if let Some(r) = run.take() {
                        out.push(r);
                    }
                    run = Some((site.target, stmt.line, 1));
                }
            },
            StmtKind::Branch { body, .. } => {
                if let Some(r) = run.take() {
                    out.push(r);
                }
                collect_call_runs(body, out);
            }
            StmtKind::Work(_) | StmtKind::Touch(_) => {
                if let Some(r) = run.take() {
                    out.push(r);
                }
            }
        }
    }
    if let Some(r) = run.take() {
        out.push(r);
    }
}

/// `unused-heavy-library`: a whole library loaded eagerly at every cold
/// start that no handler statically uses — and, when a profile is
/// available, that no profiled invocation ever touched. ColdSpy-style
/// inefficiency, fixed by deferring the library root.
fn detect_unused_heavy_library(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let app = ctx.app;
    let rt = &cfg.runtime;
    let eager = ctx.eager_closure_all_handlers();
    let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
    let mut out = Vec::new();
    for lib in app.libraries() {
        let name = lib.name();
        let members: Vec<ModuleId> = lib
            .modules()
            .iter()
            .copied()
            .filter(|m| eager[m.index()])
            .collect();
        let cost = member_cost(app, &members, rt);
        if cost < cfg.heavy_library_ms {
            continue;
        }
        if handler_fns
            .iter()
            .any(|f| function_uses_package(app, *f, name))
        {
            continue;
        }
        if let Some(usage) = ctx.usage {
            if observed_fraction(usage, name) > 0.0 {
                continue;
            }
        }
        let Some((span, edit)) = defer_edit(ctx, name) else {
            continue;
        };
        let action = FixAction::DeferPackage {
            package: name.to_string(),
        };
        let saving = saving_of(ctx, &action, rt);
        out.push(finding(
            "unused-heavy-library",
            rt.severity_for(cost),
            span,
            format!(
                "unused heavy library: `{name}` costs {cost:.1} ms at every cold start ({}) \
                 but no handler ever uses it",
                rt.name
            ),
            action,
            edit,
            saving,
        ));
    }
    out
}

/// `handler-hot-import`: a deferred import whose target the profile saw in
/// a large fraction of invocations — the deferral moved a near-certain
/// load into the hot request path. Profile-driven; silent without usage.
fn detect_handler_hot_import(
    ctx: &AnalysisContext<'_>,
    cfg: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    let Some(usage) = ctx.usage else {
        return Vec::new();
    };
    let app = ctx.app;
    let rt = &cfg.runtime;
    let eager = ctx.eager_closure_all_handlers();
    let mut out = Vec::new();
    for (importer, decl) in app.all_imports() {
        if !decl.mode.is_deferred() || eager[decl.target.index()] {
            continue;
        }
        let tname = app.module(decl.target).name().to_string();
        let frac = observed_fraction(usage, &tname);
        if frac < cfg.hot_fraction {
            continue;
        }
        let action = FixAction::RestoreEager {
            importer: app.module(importer).name().to_string(),
            target: tname.clone(),
        };
        let mut probe = app.clone();
        if !action.apply(&mut probe) || probe.validate().is_err() {
            continue;
        }
        let lazy = ctx.index.reach(app, decl.target);
        let members: Vec<ModuleId> = (0..app.modules().len())
            .map(ModuleId::from_index)
            .filter(|m| lazy.contains(*m) && !eager[m.index()])
            .collect();
        let cost = member_cost(app, &members, rt) * rt.lazy_load_penalty * frac;
        let saving = saving_of(ctx, &action, rt);
        out.push(finding(
            "handler-hot-import",
            rt.severity_for(cost),
            Span::new(app.module(importer).file(), decl.line),
            format!(
                "handler-hot import: deferred `{tname}` was used in {:.0}% of profiled \
                 invocations — its lazy load lands in the hot request path (~{cost:.1} ms \
                 amortized, {})",
                frac * 100.0,
                rt.name
            ),
            action,
            restore_edit(app, importer, decl.target, decl.line),
            saving,
        ));
    }
    out
}

/// Runs all six anti-pattern detectors over `app` and returns the findings
/// in deterministic order.
pub fn collect_findings(
    app: &Application,
    usage: Option<&ObservedUsage>,
    config: &AntipatternConfig,
) -> Vec<AntipatternFinding> {
    findings_in(&AnalysisContext::new(app, usage), config)
}

/// [`collect_findings`] over an already-built context.
fn findings_in(ctx: &AnalysisContext<'_>, config: &AntipatternConfig) -> Vec<AntipatternFinding> {
    let mut out = Vec::new();
    out.extend(detect_eager_monolithic(ctx, config));
    out.extend(detect_oversized_tree(ctx, config));
    out.extend(detect_init_in_handler(ctx, config));
    out.extend(detect_missing_connection_reuse(ctx, config));
    out.extend(detect_unused_heavy_library(ctx, config));
    out.extend(detect_handler_hot_import(ctx, config));
    out
}

// ---------------------------------------------------------------- passes

macro_rules! antipattern_pass {
    ($name:ident, $id:literal, $desc:literal, $detect:ident) => {
        /// Anti-pattern pass; see the module docs and [`lint_catalog`].
        pub struct $name {
            /// Pass thresholds and the runtime cost profile.
            pub config: AntipatternConfig,
        }

        impl AnalysisPass for $name {
            fn id(&self) -> &'static str {
                $id
            }

            fn description(&self) -> &'static str {
                $desc
            }

            fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
                out.extend($detect(ctx, &self.config).into_iter().map(|f| f.diagnostic));
            }
        }
    };
}

antipattern_pass!(
    EagerMonolithicInitPass,
    "eager-monolithic-init",
    "flag heavy eager packages that some handlers never need",
    detect_eager_monolithic
);
antipattern_pass!(
    OversizedDependencyTreePass,
    "oversized-dependency-tree",
    "flag large eager module subtrees no handler reaches",
    detect_oversized_tree
);
antipattern_pass!(
    InitInHandlerPass,
    "init-in-handler",
    "flag deferred imports every handler pays for inside the request",
    detect_init_in_handler
);
antipattern_pass!(
    MissingConnectionReusePass,
    "missing-connection-reuse",
    "flag repeated per-invocation client/connection setup",
    detect_missing_connection_reuse
);
antipattern_pass!(
    UnusedHeavyLibraryPass,
    "unused-heavy-library",
    "flag expensive eagerly-loaded libraries no handler uses",
    detect_unused_heavy_library
);
antipattern_pass!(
    HandlerHotImportPass,
    "handler-hot-import",
    "flag deferred imports the profile shows on the hot path",
    detect_handler_hot_import
);

impl Analyzer {
    /// The default five passes plus the six anti-pattern passes — the
    /// full lint catalog `slimstart lint` runs.
    pub fn with_antipattern_passes(config: AntipatternConfig) -> Analyzer {
        let mut a = Analyzer::with_default_passes();
        a.register(Box::new(EagerMonolithicInitPass {
            config: config.clone(),
        }));
        a.register(Box::new(OversizedDependencyTreePass {
            config: config.clone(),
        }));
        a.register(Box::new(InitInHandlerPass {
            config: config.clone(),
        }));
        a.register(Box::new(MissingConnectionReusePass {
            config: config.clone(),
        }));
        a.register(Box::new(UnusedHeavyLibraryPass {
            config: config.clone(),
        }));
        a.register(Box::new(HandlerHotImportPass { config }));
        a
    }
}

// --------------------------------------------------------------- catalog

/// One entry of the lint catalog: what a lint means, how it is detected
/// and what the suggested refactoring is (`slimstart lint --explain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintInfo {
    /// Stable lint id.
    pub id: &'static str,
    /// The pass that emits it.
    pub pass: &'static str,
    /// Default severity label (per-runtime promotion may raise it).
    pub default_severity: &'static str,
    /// Why the pattern hurts cold starts.
    pub rationale: &'static str,
    /// How the analyzer detects it.
    pub detection: &'static str,
    /// The suggested refactoring.
    pub refactoring: &'static str,
}

/// The full lint catalog: every lint id any registered pass can emit.
pub fn lint_catalog() -> &'static [LintInfo] {
    &[
        LintInfo {
            id: "deferral-side-effects",
            pass: "deferral-safety",
            default_severity: "error",
            rationale: "a deferred subtree containing import-time side effects postpones \
                        observable behaviour past cold start",
            detection: "deferral-safety verifier: side-effectful module inside the deferred \
                        subtree",
            refactoring: "restore the eager import, or isolate the side effects into a module \
                          that stays eager",
        },
        LintInfo {
            id: "deferral-parent-side-effects",
            pass: "deferral-safety",
            default_severity: "error",
            rationale: "deferring a subtree can also postpone a side-effectful ancestor package \
                        that nothing else loads eagerly",
            detection: "deferral-safety verifier: parent-aware load-set diff before/after the \
                        deferral",
            refactoring: "keep an eager import of the side-effectful ancestor",
        },
        LintInfo {
            id: "deferral-touch-before-call",
            pass: "deferral-safety",
            default_severity: "error",
            rationale: "an attribute touch before the first call site would read an unbound name \
                        once the import moves there",
            detection: "deferral-safety verifier: statement-order scan of every function outside \
                        the subtree",
            refactoring: "move the touch after the first call, or restore the eager import",
        },
        LintInfo {
            id: "deferral-cycle",
            pass: "deferral-safety",
            default_severity: "error",
            rationale: "deferred-import cycles re-enter the lazy loader at runtime",
            detection: "deferral-safety verifier: path search over deferred edges with the \
                        boundary flipped",
            refactoring: "break the cycle by keeping one edge eager",
        },
        LintInfo {
            id: "dead-import",
            pass: "dead-imports",
            default_severity: "warning",
            rationale: "a global import no function of the importer reaches still costs init \
                        time and memory at every cold start",
            detection: "transitive call-graph reachability from the importer's functions",
            refactoring: "delete the import",
        },
        LintInfo {
            id: "redundant-import",
            pass: "duplicate-imports",
            default_severity: "info",
            rationale: "an import whose target another import already loads adds noise and \
                        hides the real dependency",
            detection: "eager-closure containment between sibling import declarations",
            refactoring: "delete the redundant declaration",
        },
        LintInfo {
            id: "shadowed-deferral",
            pass: "duplicate-imports",
            default_severity: "warning",
            rationale: "a deferred import whose target still loads eagerly through another path \
                        buys nothing and misleads readers",
            detection: "deferred targets present in the all-handlers eager closure",
            refactoring: "defer the other eager path too, or restore this import to eager",
        },
        LintInfo {
            id: "import-cycle",
            pass: "import-cycles",
            default_severity: "warning",
            rationale: "cycles through deferred edges are re-entrant lazy loads and a \
                        maintenance hazard",
            detection: "DFS over the full import graph with canonical cycle reporting",
            refactoring: "restructure so one direction of the cycle disappears",
        },
        LintInfo {
            id: "over-approximation",
            pass: "over-approximation",
            default_severity: "info",
            rationale: "subtrees static analysis keeps but the profile never observed are pure \
                        over-approximation cost (the paper's Fig. 2 gap)",
            detection: "diff of FaaSLight reachability against profile-observed usage",
            refactoring: "let the profile-guided optimizer defer them",
        },
        LintInfo {
            id: "eager-monolithic-init",
            pass: "eager-monolithic-init",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "one heavy package dominating eager init that some handlers never need \
                        makes every cold start pay the worst case",
            detection: "eager package cost share above threshold, at least one handler without \
                        a static use, deferral proven safe",
            refactoring: "defer the package's boundary imports (applied by `lint --fix`)",
        },
        LintInfo {
            id: "oversized-dependency-tree",
            pass: "oversized-dependency-tree",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "hundreds of eagerly-imported modules nobody calls inflate init and \
                        memory on every cold start",
            detection: "eager subtree of >= N modules unreachable from every handler, deferral \
                        proven safe",
            refactoring: "defer the subtree at its root (applied by `lint --fix`)",
        },
        LintInfo {
            id: "init-in-handler",
            pass: "init-in-handler",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "initialization every handler needs that runs inside the request path \
                        adds its cost to first-request latency on every fresh container",
            detection: "per-entry FaaSLight call-graph query: every handler statically reaches \
                        the deferred target",
            refactoring: "restore the eager import so the load happens during init (applied by \
                          `lint --fix`)",
        },
        LintInfo {
            id: "missing-connection-reuse",
            pass: "missing-connection-reuse",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "re-creating a client or connection on every call repeats setup work \
                        that one module-scope client amortizes across the container lifetime",
            detection: "runs of >= N consecutive identical library calls in handler-reachable \
                        functions",
            refactoring: "hoist the client to module scope and reuse it (advisory)",
        },
        LintInfo {
            id: "unused-heavy-library",
            pass: "unused-heavy-library",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "an expensive library no handler uses is pure cold-start waste",
            detection: "eager library cost above threshold, no static handler use, no observed \
                        profile use, deferral proven safe",
            refactoring: "defer the library root (applied by `lint --fix`); consider removing \
                          the dependency",
        },
        LintInfo {
            id: "handler-hot-import",
            pass: "handler-hot-import",
            default_severity: "info/warning (runtime-ranked)",
            rationale: "deferring an import the workload uses on most invocations just moves \
                        its cost into the hot request path",
            detection: "profile-observed use fraction of a deferred target above threshold",
            refactoring: "restore the eager import (applied by `lint --fix`)",
        },
    ]
}

/// Looks up a catalog entry by lint id.
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    lint_catalog().iter().find(|l| l.id == id)
}

// --------------------------------------------------------------- autofix

/// A fix [`auto_fix`] applied.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedFix {
    /// The lint that proposed it.
    pub lint_id: &'static str,
    /// Human description of the action.
    pub subject: String,
    /// The projected source edit.
    pub edit: CodeEdit,
    /// Modeled mean cold-start saving, ms (non-negative by construction).
    pub estimated_saving_ms: f64,
}

/// A fix [`auto_fix`] refused, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedFix {
    /// The lint that proposed it.
    pub lint_id: &'static str,
    /// Human description of the action.
    pub subject: String,
    /// Why it was refused.
    pub reason: String,
}

/// What [`auto_fix`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoFixReport {
    /// Fixes applied, in application order.
    pub applied: Vec<AppliedFix>,
    /// Fixes refused by one of the gates.
    pub rejected: Vec<RejectedFix>,
    /// Collect/apply rounds executed.
    pub rounds: usize,
    /// Modeled mean cold start before any fix, ms.
    pub estimated_before_ms: f64,
    /// Modeled mean cold start after the applied fixes, ms.
    pub estimated_after_ms: f64,
    /// Whether the loop reached a fixpoint (a round that applied nothing)
    /// within the round budget.
    pub converged: bool,
}

impl AutoFixReport {
    /// Total modeled saving across applied fixes, ms.
    pub fn estimated_saving_ms(&self) -> f64 {
        self.estimated_before_ms - self.estimated_after_ms
    }
}

/// The result of [`auto_fix`]: the rewritten application and the journal.
#[derive(Debug, Clone)]
pub struct AutoFixResult {
    /// The application with all accepted fixes applied.
    pub app: Application,
    /// What was applied, what was refused, and the modeled deltas.
    pub report: AutoFixReport,
}

/// Applies the anti-pattern fixes that survive four gates, looping until a
/// fixpoint or `max_rounds`:
///
/// 1. **Safety** — `DeferPackage` actions must pass the deferral-safety
///    verifier against the *current* application; `RestoreEager` actions
///    must leave the model's invariants intact (no global-import cycle).
/// 2. **No new errors** — the default five-pass analyzer must report no
///    more error-severity diagnostics on the fixed app than before.
/// 3. **Convergence** — re-collecting findings on the fixed app must show
///    the fixed lint instance gone.
/// 4. **No modeled regression** — the runtime-profile cold-start estimate
///    must not increase.
///
/// Rejected actions are remembered across rounds so the loop cannot retry
/// them forever. Advisory fixes are reported but never applied.
pub fn auto_fix(
    app: &Application,
    usage: Option<&ObservedUsage>,
    config: &AntipatternConfig,
    max_rounds: usize,
) -> AutoFixResult {
    let rt = &config.runtime;
    let mut current = app.clone();
    // One index per application version: built for the input here and for
    // each candidate below, and carried over when the candidate is kept.
    let mut index = ModuleIndex::build(&current);
    let estimated_before_ms = estimate(&index, &current, rt);
    let mut applied: Vec<AppliedFix> = Vec::new();
    let mut rejected: Vec<RejectedFix> = Vec::new();
    let mut applied_keys: BTreeSet<String> = BTreeSet::new();
    let mut rejected_keys: BTreeSet<String> = BTreeSet::new();
    let mut rounds = 0;
    let mut converged = false;

    while rounds < max_rounds {
        rounds += 1;
        let ctx = AnalysisContext::with_index(&current, usage, index);
        let findings = findings_in(&ctx, config);
        let base_errors = Analyzer::with_default_passes().run(&ctx).error_count();
        index = ctx.index;
        let mut seen_this_round: BTreeSet<String> = BTreeSet::new();
        let mut progressed = false;

        for f in findings {
            if !f.fix.action.is_applicable() {
                continue;
            }
            let key = f.fix.action.key();
            if applied_keys.contains(&key)
                || rejected_keys.contains(&key)
                || !seen_this_round.insert(key.clone())
            {
                continue;
            }
            let reject = |reason: String, rejected: &mut Vec<RejectedFix>| {
                rejected.push(RejectedFix {
                    lint_id: f.fix.lint_id,
                    subject: f.fix.action.describe(),
                    reason,
                });
            };
            // Gate 1: the safety verifier, against the live application.
            if let FixAction::DeferPackage { package } = &f.fix.action {
                if let Err(v) = index.verify_deferral(&current, package) {
                    reject(format!("safety verifier refused: {v}"), &mut rejected);
                    rejected_keys.insert(key);
                    continue;
                }
            }
            let mut candidate = current.clone();
            if !f.fix.action.apply(&mut candidate) {
                continue; // stale no-op; re-collected next round
            }
            if let Err(e) = candidate.validate() {
                reject(format!("model invariant violated: {e}"), &mut rejected);
                rejected_keys.insert(key);
                continue;
            }
            // Gate 2: re-analysis must not introduce new errors.
            let cand_ctx = AnalysisContext::new(&candidate, usage);
            let cand_errors = Analyzer::with_default_passes().run(&cand_ctx).error_count();
            if cand_errors > base_errors {
                reject(
                    format!("re-analysis reports {cand_errors} error(s), up from {base_errors}"),
                    &mut rejected,
                );
                rejected_keys.insert(key);
                continue;
            }
            // Gate 3: the fixed lint instance must be gone.
            let still_fires = findings_in(&cand_ctx, config)
                .iter()
                .any(|g| g.fix.lint_id == f.fix.lint_id && g.fix.action.key() == key);
            let cand_index = cand_ctx.index;
            if still_fires {
                reject(
                    "fix did not eliminate the lint instance".to_string(),
                    &mut rejected,
                );
                rejected_keys.insert(key);
                continue;
            }
            // Gate 4: the modeled cold start must not regress.
            let saving = estimate(&index, &current, rt) - estimate(&cand_index, &candidate, rt);
            if saving < -1e-9 {
                reject(
                    format!("regresses modeled cold start by {:.1} ms", -saving),
                    &mut rejected,
                );
                rejected_keys.insert(key);
                continue;
            }
            current = candidate;
            index = cand_index;
            applied.push(AppliedFix {
                lint_id: f.fix.lint_id,
                subject: f.fix.action.describe(),
                edit: f.fix.edit,
                estimated_saving_ms: saving.max(0.0),
            });
            applied_keys.insert(key);
            progressed = true;
        }

        if !progressed {
            converged = true;
            break;
        }
    }

    let estimated_after_ms = estimate(&index, &current, rt);
    AutoFixResult {
        app: current,
        report: AutoFixReport {
            applied,
            rejected,
            rounds,
            estimated_before_ms,
            estimated_after_ms,
            converged,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_simcore::time::SimDuration;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn package_cost_walk_takes_children_off_a_stack() {
        // `lib.a` was added before `lib.b`, so `lib.b`'s subtree comes off
        // the stack first: the walk is not package-tree order.
        let mut b = AppBuilder::new("walk");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        for (line, name) in (1..).zip(["lib.a", "lib.a.x", "lib", "lib.b"]) {
            let m = b.add_library_module(name, ms(1), 0, false, lib);
            b.add_import(h, m, line, ImportMode::Global).unwrap();
        }
        let f = b.add_function("main", h, 9, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let ctx = AnalysisContext::new(&app, None);
        let lib = ctx.index.tree().package(&app, "lib");
        let walk: Vec<&str> = walk_members(&ctx, lib)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert_eq!(walk, ["lib", "lib.b", "lib.a", "lib.a.x"]);
    }

    /// handler + lib{root, hot, heavy×2}: the handler uses only lib.hot;
    /// lib.heavy (100 ms across two modules) rides along eagerly.
    fn monolithic_app() -> Application {
        let mut b = AppBuilder::new("mono");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(2), 0, false, lib);
        let hot = b.add_library_module("lib.hot", ms(400), 0, false, lib);
        let heavy = b.add_library_module("lib.heavy", ms(60), 0, false, lib);
        let heavy2 = b.add_library_module("lib.heavy.sub", ms(40), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 1, ImportMode::Global).unwrap();
        b.add_import(root, heavy, 2, ImportMode::Global).unwrap();
        b.add_import(heavy, heavy2, 1, ImportMode::Global).unwrap();
        let api = b.add_function("hot.api", hot, 3, vec![]);
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
        b.finish().unwrap()
    }

    #[test]
    fn monolithic_init_is_flagged_with_defer_fix() {
        let app = monolithic_app();
        let cfg = AntipatternConfig::default();
        let findings = collect_findings(&app, None, &cfg);
        let mono: Vec<_> = findings
            .iter()
            .filter(|f| f.fix.lint_id == "eager-monolithic-init")
            .collect();
        assert!(
            mono.iter().any(|f| matches!(
                &f.fix.action,
                FixAction::DeferPackage { package } if package == "lib.heavy"
            )),
            "{mono:?}"
        );
        // The handler-used subtree is never proposed for deferral.
        assert!(!findings.iter().any(|f| matches!(
            &f.fix.action,
            FixAction::DeferPackage { package } if package == "lib.hot" || package == "lib"
        )));
        let f = mono
            .iter()
            .find(|f| matches!(&f.fix.action, FixAction::DeferPackage { package } if package == "lib.heavy"))
            .unwrap();
        assert!(
            f.fix.estimated_saving_ms > 90.0,
            "{}",
            f.fix.estimated_saving_ms
        );
        assert!(f.diagnostic.suggestion.is_some());
    }

    #[test]
    fn below_threshold_app_is_clean() {
        // Same shape, tiny init: total gate not met.
        let mut b = AppBuilder::new("small");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let heavy = b.add_library_module("lib.heavy", ms(5), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, heavy, 1, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert!(collect_findings(&app, None, &AntipatternConfig::default()).is_empty());
    }

    #[test]
    fn same_lint_ranks_differently_per_runtime() {
        // lib.heavy is ~101 ms on python (warning, >= 100) but ~184 ms on
        // the JVM whose warn floor is 250 (info).
        let app = monolithic_app();
        let py = collect_findings(
            &app,
            None,
            &AntipatternConfig::default().with_runtime(RuntimeProfile::python()),
        );
        let jv = collect_findings(
            &app,
            None,
            &AntipatternConfig::default().with_runtime(RuntimeProfile::java()),
        );
        let sev = |fs: &[AntipatternFinding]| {
            fs.iter()
                .find(|f| {
                    f.fix.lint_id == "eager-monolithic-init"
                        && matches!(&f.fix.action, FixAction::DeferPackage { package } if package == "lib.heavy")
                })
                .map(|f| f.diagnostic.severity)
        };
        assert_eq!(sev(&py), Some(Severity::Warning));
        assert_eq!(sev(&jv), Some(Severity::Info));
    }

    #[test]
    fn estimator_charges_lazy_loads_with_penalty() {
        let mut app = monolithic_app();
        let rt = RuntimeProfile::python();
        let eager_cost = estimated_cold_start_ms(&app, &rt);
        // Defer the handler-used subtree: its cost moves into the request
        // with the lazy penalty, so the modeled cold start goes *up*.
        let root = app.module_by_name("lib").unwrap();
        let hot = app.module_by_name("lib.hot").unwrap();
        app.set_import_mode(root, hot, ImportMode::Deferred);
        let lazy_cost = estimated_cold_start_ms(&app, &rt);
        assert!(lazy_cost > eager_cost, "{lazy_cost} vs {eager_cost}");
    }

    #[test]
    fn auto_fix_defers_the_heavy_package_and_converges() {
        let app = monolithic_app();
        let cfg = AntipatternConfig::default();
        let result = auto_fix(&app, None, &cfg, 4);
        assert!(result.report.converged);
        assert!(result
            .report
            .applied
            .iter()
            .any(|a| a.subject.contains("lib.heavy")));
        assert!(result.report.estimated_after_ms < result.report.estimated_before_ms);
        assert!(result
            .report
            .applied
            .iter()
            .all(|a| a.estimated_saving_ms >= 0.0));
        // Convergence: the fixed lints are gone from the fixed app.
        let after = collect_findings(&result.app, None, &cfg);
        for a in &result.report.applied {
            assert!(
                !after.iter().any(|f| f.fix.lint_id == a.lint_id),
                "{} still fires",
                a.lint_id
            );
        }
        // The original is untouched.
        let root = app.module_by_name("lib").unwrap();
        assert!(app.imports_of(root).iter().all(|d| d.mode.is_global()));
    }

    #[test]
    fn auto_fix_never_defers_side_effectful_packages() {
        let mut b = AppBuilder::new("sfx");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(2), 0, false, lib);
        let hot = b.add_library_module("lib.hot", ms(400), 0, false, lib);
        let plug = b.add_library_module("lib.plugins", ms(100), 0, true, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 1, ImportMode::Global).unwrap();
        b.add_import(root, plug, 2, ImportMode::Global).unwrap();
        let api = b.add_function("hot.api", hot, 3, vec![]);
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
        let result = auto_fix(&app, None, &AntipatternConfig::default(), 4);
        // The detectors pre-check the verifier, so the side-effectful
        // package is never even proposed — and certainly never applied.
        assert!(
            result.report.applied.is_empty(),
            "{:?}",
            result.report.applied
        );
        let root = result.app.module_by_name("lib").unwrap();
        assert!(result
            .app
            .imports_of(root)
            .iter()
            .all(|d| d.mode.is_global()));
    }

    #[test]
    fn findings_are_deterministic() {
        let app = monolithic_app();
        let cfg = AntipatternConfig::default();
        let a = collect_findings(&app, None, &cfg);
        let b = collect_findings(&app, None, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn lint_catalog_covers_every_id_once() {
        let catalog = lint_catalog();
        assert_eq!(catalog.len(), 15);
        let mut ids: Vec<&str> = catalog.iter().map(|l| l.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15, "duplicate lint ids in the catalog");
        for id in [
            "eager-monolithic-init",
            "oversized-dependency-tree",
            "init-in-handler",
            "missing-connection-reuse",
            "unused-heavy-library",
            "handler-hot-import",
        ] {
            assert!(lint_info(id).is_some(), "{id} missing from catalog");
        }
        assert!(lint_info("nope").is_none());
    }

    #[test]
    fn all_passes_analyzer_registers_eleven_passes() {
        let a = Analyzer::with_antipattern_passes(AntipatternConfig::default());
        assert_eq!(a.passes().len(), 11);
        let ids: Vec<&str> = a.passes().iter().map(|p| p.id()).collect();
        assert!(ids.contains(&"deferral-safety"));
        assert!(ids.contains(&"eager-monolithic-init"));
        assert!(ids.contains(&"handler-hot-import"));
        // Every pass id in the catalog resolves.
        for pass in ids {
            assert!(
                lint_catalog().iter().any(|l| l.pass == pass)
                    || pass == "dead-imports"
                    || pass == "duplicate-imports"
                    || pass == "import-cycles"
                    || pass == "over-approximation"
                    || pass == "deferral-safety",
            );
        }
    }

    #[test]
    fn fix_action_keys_and_apply_round_trip() {
        let defer = FixAction::DeferPackage {
            package: "lib.heavy".into(),
        };
        let eager = FixAction::RestoreEager {
            importer: "handler".into(),
            target: "lib".into(),
        };
        assert_eq!(defer.key(), "defer:lib.heavy");
        assert_eq!(eager.key(), "eager:handler->lib");
        assert!(!FixAction::Advisory.is_applicable());
        let mut app = monolithic_app();
        assert!(defer.apply(&mut app));
        // Re-applying is a no-op: the boundary is already deferred... but
        // boundary_imports only lists *global* edges, so apply reports false.
        assert!(!defer.apply(&mut app));
        // Restore it.
        let restore = FixAction::RestoreEager {
            importer: "lib".into(),
            target: "lib.heavy".into(),
        };
        assert!(restore.apply(&mut app));
        assert!(!restore.apply(&mut app), "already eager");
    }
}
