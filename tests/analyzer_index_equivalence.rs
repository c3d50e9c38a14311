//! Differential equivalence: the indexed deferral verifier against the
//! string-scan verifier it replaced, and the application's package tree
//! against the string-keyed reference tree ([`common::ReferencePackageTree`]).
//!
//! The `reference` module below is the pre-index analyzer, kept verbatim
//! except for one rule: its parent climb now skips dotted prefixes that no
//! module carries (the nearest *existing* ancestor, as the runtime's loader
//! does) instead of stopping at the first missing one. Every verifier
//! verdict, every boundary list, the cold-start estimate and the full
//! report JSON of both analyzer configurations must match it exactly, on
//! the small catalog apps (as written and conservatively optimized, which
//! adds deployed deferrals), the anti-pattern fixtures and seeded random
//! apps built to hit the verifier's corner cases.
//!
//! The package tree must list the reference's packages (in the same order
//! wherever no name has a byte below `.`), each package's children in the
//! reference's order, and each package's members in `modules_under` order
//! when walked the way the package-cost lints walk them; its parent links
//! must give the loader's ancestor chains.

mod common;

use slimstart::analyzer::antipattern::MissingConnectionReusePass;
use slimstart::analyzer::{
    boundary_imports, estimated_cold_start_ms, Analyzer, AntipatternConfig, DeadImportPass,
    ImportCyclePass, ModuleIndex, ObservedUsage, OverApproximationPass, RuntimeProfile,
};
use slimstart::appmodel::catalog::{antipattern_apps, catalog};
use slimstart::appmodel::function::StmtKind;
use slimstart::appmodel::{Application, ModuleId, Package, PackageTree};
use slimstart::core::optimizer::optimize_conservative;
use slimstart::pyrt::LoaderPlan;

use common::ReferencePackageTree;

/// The pre-index analyzer: module-by-name parent climbs, per-package
/// closures and whole-application scans.
mod reference {
    use slimstart::analyzer::{
        AnalysisContext, AnalysisPass, AntipatternConfig, Diagnostic, ObservedUsage,
        RuntimeProfile, SafetyViolation, Severity, Span,
    };
    use slimstart::appmodel::function::{Stmt, StmtKind};
    use slimstart::appmodel::source::{function_uses_package, CodeEdit};
    use slimstart::appmodel::{Application, FunctionId, ImportDecl, ImportMode, ModuleId};
    use slimstart::faaslight::reachability::handlers_reaching_package;

    use crate::common::ReferencePackageTree;

    /// The nearest existing dotted-prefix ancestor, found by name.
    fn parent(app: &Application, m: ModuleId) -> Option<ModuleId> {
        let mut name = app.module(m).name();
        while let Some((prefix, _)) = name.rsplit_once('.') {
            if let Some(p) = app.module_by_name(prefix) {
                return Some(p);
            }
            name = prefix;
        }
        None
    }

    pub fn eager_closure<F>(app: &Application, root: ModuleId, is_global: F) -> Vec<bool>
    where
        F: Fn(ModuleId, &ImportDecl) -> bool,
    {
        let mut loaded = vec![false; app.modules().len()];
        let mut stack = vec![root];
        while let Some(m) = stack.pop() {
            if loaded[m.index()] {
                continue;
            }
            loaded[m.index()] = true;
            if let Some(p) = parent(app, m) {
                if !loaded[p.index()] {
                    stack.push(p);
                }
            }
            for decl in app.imports_of(m) {
                if is_global(m, decl) && !loaded[decl.target.index()] {
                    stack.push(decl.target);
                }
            }
        }
        loaded
    }

    pub fn eager_closure_all_handlers<F>(app: &Application, is_global: F) -> Vec<bool>
    where
        F: Fn(ModuleId, &ImportDecl) -> bool,
    {
        let mut loaded = vec![false; app.modules().len()];
        for handler in app.handlers() {
            let root = app.handler_module(
                app.handler_by_name(handler.name())
                    .expect("handler exists by construction"),
            );
            for (i, flag) in eager_closure(app, root, &is_global).iter().enumerate() {
                if *flag {
                    loaded[i] = true;
                }
            }
        }
        loaded
    }

    pub fn boundary_imports(app: &Application, package: &str) -> Vec<(ModuleId, ModuleId, u32)> {
        let mut out = Vec::new();
        for (importer, decl) in app.all_imports() {
            if decl.mode.is_global()
                && !app.module(importer).in_package(package)
                && app.module(decl.target).in_package(package)
            {
                out.push((importer, decl.target, decl.line));
            }
        }
        out
    }

    pub fn verify_deferral(app: &Application, package: &str) -> Result<(), SafetyViolation> {
        let boundary = boundary_imports(app, package);
        if boundary.is_empty() {
            return Ok(());
        }
        for module in app.modules() {
            if module.in_package(package) && module.side_effectful() {
                return Err(SafetyViolation::SideEffectfulModule {
                    package: package.to_string(),
                    module: module.name().to_string(),
                    file: module.file().to_string(),
                });
            }
        }
        let is_boundary = |importer: ModuleId, target: ModuleId| {
            !app.module(importer).in_package(package) && app.module(target).in_package(package)
        };
        let before = eager_closure_all_handlers(app, |_, d| d.mode.is_global());
        let after =
            eager_closure_all_handlers(app, |m, d| d.mode.is_global() && !is_boundary(m, d.target));
        for (idx, module) in app.modules().iter().enumerate() {
            if before[idx] && !after[idx] && !module.in_package(package) && module.side_effectful()
            {
                return Err(SafetyViolation::ParentSideEffects {
                    package: package.to_string(),
                    parent: module.name().to_string(),
                    file: module.file().to_string(),
                });
            }
        }
        for function in app.functions() {
            if app.module(function.module()).in_package(package) {
                continue;
            }
            if let Some((touched, line)) = touch_before_call(app, function.body(), package) {
                return Err(SafetyViolation::ImportTimeTouch {
                    package: package.to_string(),
                    function: function.name().to_string(),
                    module: app.module(touched).name().to_string(),
                    file: app.module(function.module()).file().to_string(),
                    line,
                });
            }
        }
        let deferred_edge = |importer: ModuleId, decl: &ImportDecl| {
            decl.mode == ImportMode::Deferred || is_boundary(importer, decl.target)
        };
        for &(importer, target, line) in &boundary {
            if let Some(path) = deferred_path(app, target, importer, &deferred_edge) {
                let mut cycle = vec![app.module(importer).name().to_string()];
                cycle.extend(path.iter().map(|m| app.module(*m).name().to_string()));
                return Err(SafetyViolation::DeferredCycle {
                    package: package.to_string(),
                    cycle,
                    file: app.module(importer).file().to_string(),
                    line,
                });
            }
        }
        Ok(())
    }

    pub fn verify_deferred_import(
        app: &Application,
        importer: ModuleId,
        target: ModuleId,
    ) -> Result<(), SafetyViolation> {
        let target_name = app.module(target).name().to_string();
        let lazy = eager_closure(app, target, |_, d| d.mode.is_global());
        let eager = eager_closure_all_handlers(app, |_, d| d.mode.is_global());
        for (idx, module) in app.modules().iter().enumerate() {
            if lazy[idx] && !eager[idx] && module.side_effectful() {
                return Err(if module.in_package(&target_name) {
                    SafetyViolation::SideEffectfulModule {
                        package: target_name.clone(),
                        module: module.name().to_string(),
                        file: module.file().to_string(),
                    }
                } else {
                    SafetyViolation::ParentSideEffects {
                        package: target_name.clone(),
                        parent: module.name().to_string(),
                        file: module.file().to_string(),
                    }
                });
            }
        }
        for function in app.functions() {
            if function.module() != importer {
                continue;
            }
            if let Some((touched, line)) = touch_before_call(app, function.body(), &target_name) {
                return Err(SafetyViolation::ImportTimeTouch {
                    package: target_name.clone(),
                    function: function.name().to_string(),
                    module: app.module(touched).name().to_string(),
                    file: app.module(importer).file().to_string(),
                    line,
                });
            }
        }
        Ok(())
    }

    fn touch_before_call(
        app: &Application,
        body: &[Stmt],
        package: &str,
    ) -> Option<(ModuleId, u32)> {
        fn walk(
            app: &Application,
            stmts: &[Stmt],
            package: &str,
            called: &mut bool,
        ) -> Option<(ModuleId, u32)> {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::Touch(m) if app.module(*m).in_package(package) && !*called => {
                        return Some((*m, stmt.line));
                    }
                    StmtKind::Call(site) => {
                        let callee = app.function(site.target);
                        if app.module(callee.module()).in_package(package) {
                            *called = true;
                        }
                    }
                    StmtKind::Branch { body, .. } => {
                        let mut inner = *called;
                        if let Some(hit) = walk(app, body, package, &mut inner) {
                            return Some(hit);
                        }
                    }
                    StmtKind::Touch(_) | StmtKind::Work(_) => {}
                }
            }
            None
        }
        let mut called = false;
        walk(app, body, package, &mut called)
    }

    fn deferred_path<F>(
        app: &Application,
        from: ModuleId,
        to: ModuleId,
        is_edge: &F,
    ) -> Option<Vec<ModuleId>>
    where
        F: Fn(ModuleId, &ImportDecl) -> bool,
    {
        fn dfs<F>(
            app: &Application,
            node: ModuleId,
            to: ModuleId,
            is_edge: &F,
            visited: &mut [bool],
            path: &mut Vec<ModuleId>,
        ) -> bool
        where
            F: Fn(ModuleId, &ImportDecl) -> bool,
        {
            visited[node.index()] = true;
            path.push(node);
            if node == to {
                return true;
            }
            for decl in app.imports_of(node) {
                if is_edge(node, decl)
                    && !visited[decl.target.index()]
                    && dfs(app, decl.target, to, is_edge, visited, path)
                {
                    return true;
                }
            }
            path.pop();
            false
        }
        let mut visited = vec![false; app.modules().len()];
        let mut path = Vec::new();
        if dfs(app, from, to, is_edge, &mut visited, &mut path) {
            Some(path)
        } else {
            None
        }
    }

    pub fn estimated_cold_start_ms(app: &Application, rt: &RuntimeProfile) -> f64 {
        let handlers = app.handlers();
        if handlers.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for h in handlers {
            let root = app.function(h.function()).module();
            let mut loaded = eager_closure(app, root, |_, d| d.mode.is_global());
            let mut cost = 0.0;
            for (i, m) in app.modules().iter().enumerate() {
                if loaded[i] {
                    cost += m.init_cost().as_millis_f64() * rt.init_cost_factor
                        + rt.per_module_import_ms;
                }
            }
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
                    let lazy = eager_closure(app, decl.target, |_, d| d.mode.is_global());
                    let mut lazy_cost = 0.0;
                    for (i, m) in app.modules().iter().enumerate() {
                        if lazy[i] && !loaded[i] {
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

    // ------------------------------------------------------------ passes

    /// A reference pass body: reads the context's application, tree and
    /// usage, never its index.
    pub type Run = fn(&AnalysisContext<'_>, &AntipatternConfig, &mut Vec<Diagnostic>);

    /// A pass backed by a [`Run`] function.
    pub struct Pass(pub &'static str, pub Run, pub AntipatternConfig);

    impl AnalysisPass for Pass {
        fn id(&self) -> &'static str {
            self.0
        }

        fn description(&self) -> &'static str {
            "reference pass"
        }

        fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
            (self.1)(ctx, &self.2, out)
        }
    }

    pub fn deferral_safety(
        ctx: &AnalysisContext<'_>,
        _: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        for (importer, decl) in app.all_imports() {
            if !decl.mode.is_deferred() {
                continue;
            }
            if let Err(v) = verify_deferred_import(app, importer, decl.target) {
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
        for node in ReferencePackageTree::of(app).iter() {
            if boundary_imports(app, &node.path).is_empty() {
                continue;
            }
            if let Err(v) = verify_deferral(app, &node.path) {
                let (file, line) = v.span();
                out.push(Diagnostic {
                    lint_id: v.lint_id(),
                    severity: Severity::Warning,
                    span: Span::new(file, line),
                    message: format!("candidate deferral of `{}` is unsafe: {v}", node.path),
                    suggestion: None,
                });
            }
        }
    }

    pub fn duplicate_imports(
        ctx: &AnalysisContext<'_>,
        _: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        let eager = eager_closure_all_handlers(app, |_, d| d.mode.is_global());
        for m in 0..app.modules().len() {
            let mid = ModuleId::from_index(m);
            let decls = app.imports_of(mid);
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
                    let cover = eager_closure(app, d2.target, |_, dd| dd.mode.is_global());
                    if !cover[d.target.index()] {
                        continue;
                    }
                    let back = eager_closure(app, d.target, |_, dd| dd.mode.is_global());
                    if back[d2.target.index()] && (d.line, i) < (d2.line, j) {
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

    // ------------------------------------------------ anti-pattern passes

    fn severity_for(rt: &RuntimeProfile, cost_ms: f64) -> Severity {
        if cost_ms >= rt.warn_cost_ms {
            Severity::Warning
        } else {
            Severity::Info
        }
    }

    fn member_cost(app: &Application, members: &[ModuleId], rt: &RuntimeProfile) -> f64 {
        members
            .iter()
            .map(|m| {
                app.module(*m).init_cost().as_millis_f64() * rt.init_cost_factor
                    + rt.per_module_import_ms
            })
            .sum()
    }

    fn covers(outer: &str, inner: &str) -> bool {
        inner == outer
            || (inner.len() > outer.len()
                && inner.starts_with(outer)
                && inner.as_bytes()[outer.len()] == b'.')
    }

    fn observed_fraction(usage: &ObservedUsage, path: &str) -> f64 {
        usage
            .by_package
            .iter()
            .filter(|(key, _)| covers(path, key))
            .fold(0.0, |acc, (_, frac)| acc.max(*frac))
    }

    fn defer_edit(app: &Application, package: &str) -> Option<(Span, CodeEdit)> {
        let (importer, target, line) = boundary_imports(app, package).into_iter().next()?;
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

    fn restore_edit(
        app: &Application,
        importer: ModuleId,
        target: ModuleId,
        line: u32,
    ) -> CodeEdit {
        let tname = app.module(target).name();
        CodeEdit {
            file: app.module(importer).file().to_string(),
            line,
            before: format!("# import {tname}  # line {line} (deferred by slimstart)"),
            after: format!("import {tname}  # line {line}"),
            inserted: "eager import restored — the load belongs in init, not the request"
                .to_string(),
        }
    }

    fn eager_now(app: &Application) -> Vec<bool> {
        eager_closure_all_handlers(app, |_, d| d.mode.is_global())
    }

    /// Whether restoring `importer -> target` to eager keeps the model valid.
    fn restorable(app: &Application, importer: ModuleId, target: ModuleId) -> bool {
        let mut probe = app.clone();
        probe.set_import_mode(importer, target, ImportMode::Global) && probe.validate().is_ok()
    }

    pub fn eager_monolithic(
        ctx: &AnalysisContext<'_>,
        cfg: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        let rt = &cfg.runtime;
        let eager = eager_now(app);
        let eager_members: Vec<ModuleId> = (0..app.modules().len())
            .filter(|i| eager[*i])
            .map(ModuleId::from_index)
            .collect();
        let total = member_cost(app, &eager_members, rt);
        if total < cfg.monolithic_init_ms {
            return;
        }
        let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
        let tree = ReferencePackageTree::of(app);
        let mut claimed: Vec<String> = Vec::new();
        for node in tree.iter() {
            if claimed.iter().any(|c| covers(c, &node.path)) {
                continue;
            }
            let modules = tree.modules_under(&node.path);
            if modules.is_empty()
                || !modules.iter().all(|m| eager[m.index()])
                || !modules.iter().all(|m| app.module(*m).library().is_some())
            {
                continue;
            }
            let pkg_cost = member_cost(app, &modules, rt);
            if pkg_cost < cfg.monolithic_share * total {
                continue;
            }
            let unused = handler_fns
                .iter()
                .filter(|f| !function_uses_package(app, **f, &node.path))
                .count();
            if unused == 0 || verify_deferral(app, &node.path).is_err() {
                continue;
            }
            let Some((span, edit)) = defer_edit(app, &node.path) else {
                continue;
            };
            claimed.push(node.path.clone());
            out.push(Diagnostic {
                lint_id: "eager-monolithic-init",
                severity: severity_for(rt, pkg_cost),
                span,
                message: format!(
                    "monolithic init: `{}` contributes {:.1} ms of {:.1} ms modeled cold-start \
                     init ({}), but {unused} of {} handler(s) never use it",
                    node.path,
                    pkg_cost,
                    total,
                    rt.name,
                    handler_fns.len()
                ),
                suggestion: Some(edit),
            });
        }
    }

    pub fn oversized_tree(
        ctx: &AnalysisContext<'_>,
        cfg: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        let rt = &cfg.runtime;
        let eager = eager_now(app);
        let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
        let tree = ReferencePackageTree::of(app);
        let mut claimed: Vec<String> = Vec::new();
        for node in tree.iter() {
            if claimed.iter().any(|c| covers(c, &node.path)) {
                continue;
            }
            let modules = tree.modules_under(&node.path);
            if modules.len() < cfg.oversized_modules
                || !modules.iter().all(|m| eager[m.index()])
                || !modules.iter().all(|m| app.module(*m).library().is_some())
            {
                continue;
            }
            if handler_fns
                .iter()
                .any(|f| function_uses_package(app, *f, &node.path))
            {
                continue;
            }
            if verify_deferral(app, &node.path).is_err() {
                continue;
            }
            let Some((span, edit)) = defer_edit(app, &node.path) else {
                continue;
            };
            claimed.push(node.path.clone());
            let cost = member_cost(app, &modules, rt);
            out.push(Diagnostic {
                lint_id: "oversized-dependency-tree",
                severity: severity_for(rt, cost),
                span,
                message: format!(
                    "oversized dependency tree: `{}` pulls {} modules ({:.1} ms, {}) into every \
                     cold start, yet no handler statically reaches it",
                    node.path,
                    modules.len(),
                    cost,
                    rt.name
                ),
                suggestion: Some(edit),
            });
        }
    }

    pub fn init_in_handler(
        ctx: &AnalysisContext<'_>,
        cfg: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        let rt = &cfg.runtime;
        let eager = eager_now(app);
        let n_handlers = app.handlers().len();
        for (importer, decl) in app.all_imports() {
            if !decl.mode.is_deferred() || eager[decl.target.index()] {
                continue;
            }
            let tname = app.module(decl.target).name().to_string();
            if handlers_reaching_package(app, &tname) < n_handlers {
                continue;
            }
            if !restorable(app, importer, decl.target) {
                continue;
            }
            let lazy = eager_closure(app, decl.target, |_, d| d.mode.is_global());
            let members: Vec<ModuleId> = (0..app.modules().len())
                .filter(|i| lazy[*i] && !eager[*i])
                .map(ModuleId::from_index)
                .collect();
            let cost = member_cost(app, &members, rt) * rt.lazy_load_penalty;
            out.push(Diagnostic {
                lint_id: "init-in-handler",
                severity: severity_for(rt, cost),
                span: Span::new(app.module(importer).file(), decl.line),
                message: format!(
                    "init-in-handler: deferred import of `{tname}` loads inside the request on \
                     every fresh container — all {n_handlers} handler(s) statically reach it \
                     (~{cost:.1} ms at first invocation, {})",
                    rt.name
                ),
                suggestion: Some(restore_edit(app, importer, decl.target, decl.line)),
            });
        }
    }

    pub fn unused_heavy_library(
        ctx: &AnalysisContext<'_>,
        cfg: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let app = ctx.app;
        let rt = &cfg.runtime;
        let eager = eager_now(app);
        let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
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
            if verify_deferral(app, name).is_err() {
                continue;
            }
            let Some((span, edit)) = defer_edit(app, name) else {
                continue;
            };
            out.push(Diagnostic {
                lint_id: "unused-heavy-library",
                severity: severity_for(rt, cost),
                span,
                message: format!(
                    "unused heavy library: `{name}` costs {cost:.1} ms at every cold start ({}) \
                     but no handler ever uses it",
                    rt.name
                ),
                suggestion: Some(edit),
            });
        }
    }

    pub fn handler_hot_import(
        ctx: &AnalysisContext<'_>,
        cfg: &AntipatternConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let Some(usage) = ctx.usage else {
            return;
        };
        let app = ctx.app;
        let rt = &cfg.runtime;
        let eager = eager_now(app);
        for (importer, decl) in app.all_imports() {
            if !decl.mode.is_deferred() || eager[decl.target.index()] {
                continue;
            }
            let tname = app.module(decl.target).name().to_string();
            let frac = observed_fraction(usage, &tname);
            if frac < cfg.hot_fraction {
                continue;
            }
            if !restorable(app, importer, decl.target) {
                continue;
            }
            let lazy = eager_closure(app, decl.target, |_, d| d.mode.is_global());
            let members: Vec<ModuleId> = (0..app.modules().len())
                .filter(|i| lazy[*i] && !eager[*i])
                .map(ModuleId::from_index)
                .collect();
            let cost = member_cost(app, &members, rt) * rt.lazy_load_penalty * frac;
            out.push(Diagnostic {
                lint_id: "handler-hot-import",
                severity: severity_for(rt, cost),
                span: Span::new(app.module(importer).file(), decl.line),
                message: format!(
                    "handler-hot import: deferred `{tname}` was used in {:.0}% of profiled \
                     invocations — its lazy load lands in the hot request path (~{cost:.1} ms \
                     amortized, {})",
                    frac * 100.0,
                    rt.name
                ),
                suggestion: Some(restore_edit(app, importer, decl.target, decl.line)),
            });
        }
    }
}

/// The reference analyzer: the pre-index deferral-safety and
/// duplicate-import passes around the passes this change left alone, plus
/// the reference anti-pattern passes when `antipatterns` is set.
fn reference_analyzer(antipatterns: Option<&AntipatternConfig>) -> Analyzer {
    use reference::Pass;
    let none = AntipatternConfig::default();
    let mut a = Analyzer::new();
    a.register(Box::new(Pass(
        "deferral-safety",
        reference::deferral_safety,
        none.clone(),
    )));
    a.register(Box::new(DeadImportPass));
    a.register(Box::new(Pass(
        "duplicate-imports",
        reference::duplicate_imports,
        none,
    )));
    a.register(Box::new(ImportCyclePass));
    a.register(Box::new(OverApproximationPass));
    if let Some(cfg) = antipatterns {
        let pass = |id, run: reference::Run| Box::new(Pass(id, run, cfg.clone()));
        a.register(pass("eager-monolithic-init", reference::eager_monolithic));
        a.register(pass("oversized-dependency-tree", reference::oversized_tree));
        a.register(pass("init-in-handler", reference::init_in_handler));
        a.register(Box::new(MissingConnectionReusePass {
            config: cfg.clone(),
        }));
        a.register(pass(
            "unused-heavy-library",
            reference::unused_heavy_library,
        ));
        a.register(pass("handler-hot-import", reference::handler_hot_import));
    }
    a
}

/// A deterministic stand-in profile: every other package path observed,
/// at a fraction that varies with its position.
fn usage_for(app: &Application) -> ObservedUsage {
    let mut usage = ObservedUsage {
        total_runtime_samples: 400,
        by_package: Default::default(),
    };
    for (i, node) in ReferencePackageTree::of(app).iter().enumerate() {
        if i % 2 == 0 {
            usage
                .by_package
                .insert(node.path.clone(), (i % 10) as f64 / 10.0);
        }
    }
    usage
}

/// Asserts every verdict, boundary list, estimate and report of the
/// indexed analyzer equals the reference's on `app`; returns how many
/// verdicts it compared.
fn assert_equivalent(app: &Application) -> usize {
    let name = app.name();
    let index = ModuleIndex::build(app);
    let mut verdicts = 0;

    let mut packages: Vec<String> = ReferencePackageTree::of(app)
        .iter()
        .map(|n| n.path.clone())
        .collect();
    packages.push("absent".to_string());
    for package in &packages {
        assert_eq!(
            index.verify_deferral(app, package),
            reference::verify_deferral(app, package),
            "{name}: verify_deferral(`{package}`)"
        );
        assert_eq!(
            index.boundary_imports(app, &index.tree().package(app, package)),
            reference::boundary_imports(app, package),
            "{name}: boundary of `{package}`"
        );
        assert_eq!(
            boundary_imports(app, package),
            reference::boundary_imports(app, package),
            "{name}: boundary_imports(`{package}`)"
        );
        verdicts += 1;
    }
    for (importer, decl) in app.all_imports() {
        if decl.mode.is_deferred() {
            assert_eq!(
                index.verify_deferred_import(app, importer, decl.target),
                reference::verify_deferred_import(app, importer, decl.target),
                "{name}: verify_deferred_import({importer} -> {})",
                decl.target
            );
            verdicts += 1;
        }
    }

    let eager = reference::eager_closure_all_handlers(app, |_, d| d.mode.is_global());
    assert_eq!(index.eager(), &eager[..], "{name}: all-handlers closure");
    for m in (0..app.modules().len()).map(ModuleId::from_index) {
        let reach = index.reach(app, m);
        assert_eq!(
            (0..app.modules().len())
                .map(|t| reach.contains(ModuleId::from_index(t)))
                .collect::<Vec<bool>>(),
            reference::eager_closure(app, m, |_, d| d.mode.is_global()),
            "{name}: closure of `{}`",
            app.module(m).name()
        );
    }
    for rt in [RuntimeProfile::python(), RuntimeProfile::java()] {
        assert_eq!(
            estimated_cold_start_ms(app, &rt).to_bits(),
            reference::estimated_cold_start_ms(app, &rt).to_bits(),
            "{name}: {} cold-start estimate",
            rt.name
        );
    }

    let usage = usage_for(app);
    let cfg = AntipatternConfig::default();
    for usage in [None, Some(&usage)] {
        for (ours, theirs) in [
            (Analyzer::with_default_passes(), reference_analyzer(None)),
            (
                Analyzer::with_antipattern_passes(cfg.clone()),
                reference_analyzer(Some(&cfg)),
            ),
        ] {
            assert_eq!(
                ours.analyze(app, usage).render_json(),
                theirs.analyze(app, usage).render_json(),
                "{name}: report with {} passes, usage {}",
                ours.passes().len(),
                usage.is_some()
            );
        }
    }
    verdicts
}

#[test]
fn small_catalog_apps_match_the_reference() {
    let mut apps = 0;
    for entry in catalog() {
        let app = entry.build(7).expect("catalog app builds").app;
        if app.modules().len() > 270 {
            continue;
        }
        apps += 1;
        assert!(assert_equivalent(&app) > 0);
        // The conservatively optimized app carries deployed deferrals, so
        // the deployed-import audit runs on real module graphs too.
        let optimized = optimize_conservative(&app).app;
        assert_equivalent(&optimized);
    }
    assert!(
        apps >= 5,
        "only {apps} catalog apps have at most 270 modules"
    );
}

#[test]
fn antipattern_fixtures_match_the_reference() {
    let fixtures = antipattern_apps();
    assert_eq!(fixtures.len(), 5);
    for entry in fixtures {
        let app = entry.build(7).expect("fixture builds").app;
        assert_equivalent(&app);
        assert_equivalent(&optimize_conservative(&app).app);
    }
}

/// Which of the verifier's corner cases `app` contains: a module below a
/// prefix no module carries, a sibling name prefix (`lib.sem` and
/// `lib.semantics`), two handlers in one module, a side-effectful module
/// with descendants, a touch inside a branch, and a handler's module inside
/// a package that a global import enters from outside.
fn shapes(app: &Application) -> [bool; 6] {
    let names: Vec<&str> = app.modules().iter().map(|m| m.name()).collect();
    let gap = names.iter().any(|n| {
        let mut prefix = *n;
        std::iter::from_fn(|| {
            prefix = prefix.rsplit_once('.')?.0;
            Some(prefix)
        })
        .any(|p| !names.contains(&p))
    });
    let sibling = names.iter().any(|a| {
        names
            .iter()
            .any(|b| b.len() > a.len() && b.starts_with(a) && !b[a.len()..].starts_with('.'))
    });
    let mut handler_modules: Vec<ModuleId> = app
        .handlers()
        .iter()
        .map(|h| app.function(h.function()).module())
        .collect();
    let handlers = handler_modules.len();
    handler_modules.sort();
    handler_modules.dedup();
    let entered_root = handler_modules.iter().any(|&h| {
        app.module(h).package_prefixes().any(|package| {
            app.all_imports().any(|(importer, decl)| {
                decl.mode.is_global()
                    && !app.module(importer).in_package(package)
                    && app.module(decl.target).in_package(package)
            })
        })
    });
    let noisy_ancestor = app.modules().iter().any(|m| {
        m.side_effectful()
            && app
                .modules()
                .iter()
                .any(|d| d.name() != m.name() && d.in_package(m.name()))
    });
    let branch_touch = app.functions().iter().any(|f| {
        f.body().iter().any(|s| match &s.kind {
            StmtKind::Branch { body, .. } => {
                body.iter().any(|t| matches!(t.kind, StmtKind::Touch(_)))
            }
            _ => false,
        })
    });
    [
        gap,
        sibling,
        handler_modules.len() < handlers,
        noisy_ancestor,
        branch_touch,
        entered_root,
    ]
}

#[test]
fn random_apps_match_the_reference() {
    let mut verdicts = 0;
    let mut violations = [0usize; 4];
    let mut shape_counts = [0usize; 6];
    for seed in 0..240u64 {
        let app = common::random_app(seed);
        verdicts += assert_equivalent(&app);
        for (count, present) in shape_counts.iter_mut().zip(shapes(&app)) {
            *count += usize::from(present);
        }
        let index = ModuleIndex::build(&app);
        for node in ReferencePackageTree::of(&app).iter() {
            if let Err(v) = index.verify_deferral(&app, &node.path) {
                let kind = match v.lint_id() {
                    "deferral-side-effects" => 0,
                    "deferral-parent-side-effects" => 1,
                    "deferral-touch-before-call" => 2,
                    _ => 3,
                };
                violations[kind] += 1;
            }
        }
    }
    assert!(verdicts >= 2_000, "only {verdicts} verdicts compared");
    // Every violation class and every corner-case shape must turn up, or
    // the comparison is vacuous for the missing one.
    for (kind, count) in violations.iter().enumerate() {
        assert!(
            *count >= 10,
            "violation class {kind} seen only {count} times"
        );
    }
    for (shape, count) in shape_counts.iter().enumerate() {
        assert!(*count >= 20, "shape {shape} in only {count} apps");
    }
}

/// The members of `package` in the order the package-cost lints of
/// `antipattern.rs` sum their f64 costs: depth first, each package's own
/// module before its children, the children taken off a stack.
fn lint_member_walk(app: &Application, tree: &PackageTree, package: Package<'_>) -> Vec<ModuleId> {
    let mut out = Vec::new();
    let mut stack = vec![package];
    while let Some(package) = stack.pop() {
        let own = tree.members(&package).first();
        out.extend(own.filter(|m| app.module(**m).name() == package.path()));
        stack.extend(tree.children(app, &package));
    }
    out
}

/// What a package-tree comparison of one app covered.
#[derive(Default)]
struct TreeCoverage {
    apps: usize,
    /// Apps whose package enumeration was compared in order.
    ordered: usize,
    /// Packages whose children's reference order is not package-tree order.
    children_out_of_order: usize,
    /// Packages whose `modules_under` order is not package-tree order.
    walks_out_of_order: usize,
    /// Modules below a dotted prefix no module carries.
    gaps: usize,
}

/// Asserts `app`'s package tree answers as the reference tree does.
fn assert_tree_matches_reference(app: &Application, coverage: &mut TreeCoverage) {
    let name = app.name();
    let reference = ReferencePackageTree::of(app);
    let tree = app.package_tree();
    let packages: Vec<Package<'_>> = tree.packages(app).collect();

    let mut paths: Vec<&str> = packages.iter().map(|p| p.path()).collect();
    let expected: Vec<&str> = reference.iter().map(|n| n.path.as_str()).collect();
    coverage.apps += 1;
    if app
        .modules()
        .iter()
        .all(|m| m.name().bytes().all(|b| b >= b'.'))
    {
        assert_eq!(paths, expected, "{name}: package enumeration order");
        coverage.ordered += 1;
    }
    paths.sort_unstable();
    assert_eq!(paths, expected, "{name}: package set");

    for package in &packages {
        let path = package.path();
        let node = reference.node(path).expect("the same package set");
        let children: Vec<&str> = tree
            .children(app, package)
            .iter()
            .map(|c| c.path())
            .collect();
        assert_eq!(children, node.children, "{name}: children of `{path}`");
        let mut sorted = children.clone();
        sorted.sort_by(|a, b| a.split('.').cmp(b.split('.')));
        coverage.children_out_of_order += usize::from(sorted != children);

        let walk = lint_member_walk(app, &tree, *package);
        assert_eq!(
            walk,
            reference.modules_under(path),
            "{name}: member walk of `{path}`"
        );
        coverage.walks_out_of_order += usize::from(walk != tree.members(package));
    }

    let plan = LoaderPlan::build(app);
    for m in (0..app.modules().len()).map(ModuleId::from_index) {
        let mut chain = vec![m];
        while let Some(parent) = tree.parent(*chain.last().expect("starts with m")) {
            chain.push(parent);
        }
        chain.reverse();
        assert_eq!(
            chain,
            plan.ancestors(m),
            "{name}: ancestors of `{}`",
            app.module(m).name()
        );
        let depth = app.module(m).package_prefixes().count();
        coverage.gaps += usize::from(chain.len() < depth);
    }
}

#[test]
fn package_tree_matches_the_reference() {
    let mut coverage = TreeCoverage::default();
    for seed in [2025, 7] {
        for entry in catalog() {
            let app = entry.build(seed).expect("catalog app builds").app;
            assert_tree_matches_reference(&app, &mut coverage);
        }
    }
    assert_eq!(coverage.apps, 44);
    for seed in 0..240u64 {
        assert_tree_matches_reference(&common::random_app(seed), &mut coverage);
    }
    // No name in these apps has a byte below `.`, so every enumeration was
    // compared in order; and the orders that differ from package-tree order
    // (children, the lints' walk) and modules below missing packages all
    // turn up, or their comparison would be vacuous.
    assert_eq!(coverage.ordered, coverage.apps);
    assert!(coverage.children_out_of_order >= 1_000);
    assert!(coverage.walks_out_of_order >= 1_000);
    assert!(coverage.gaps >= 1_000);
}
