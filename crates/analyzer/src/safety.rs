//! The deferral-safety verifier.
//!
//! [`verify_deferral`] proves that deferring every global boundary import
//! into a candidate package preserves observable behaviour, or returns the
//! concrete [`SafetyViolation`] that makes it unsound. It replaces the
//! optimizer's single pre-marked side-effect flag with four checked
//! violation classes:
//!
//! 1. **Side-effectful module in the subtree** — the deferred subtree
//!    contains a module whose top level has effects; postponing them
//!    changes behaviour.
//! 2. **Parent-package side effects** — the runtime loads ancestor
//!    packages implicitly (`load_with_parents`), so deferring a subtree
//!    can also postpone a side-effectful *ancestor* that nothing else
//!    loads eagerly. Import-edge reachability misses this entirely.
//! 3. **Import-time touch before first call** — the rewrite inserts the
//!    import at the first call site; an attribute `Touch` executing before
//!    that call would reference an unbound name in real Python.
//! 4. **Deferred-import cycle** — flipping boundary imports to deferred
//!    must not close a cycle among deferred edges (re-entrant lazy loads).
//!
//! [`verify_deferred_import`] applies the same reasoning to imports that
//! are *already* deferred in the application as written, which is how the
//! analyzer audits a deployed (post-optimizer or hand-tuned) app.

use std::fmt;

use slimstart_appmodel::function::{Stmt, StmtKind};
use slimstart_appmodel::library::{Package, PackageTree};
use slimstart_appmodel::{Application, ImportMode, ModuleId};

use crate::context::ModuleIndex;

/// Why a deferral is (or would be) unsafe.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyViolation {
    /// A module inside the deferred subtree runs side effects at import
    /// time; deferring would postpone them past cold start.
    SideEffectfulModule {
        /// The candidate package.
        package: String,
        /// The offending module.
        module: String,
        /// Its modeled source file.
        file: String,
    },
    /// An *ancestor* package outside the subtree is side-effectful and is
    /// only loaded eagerly because of the boundary imports being deferred.
    ParentSideEffects {
        /// The candidate package.
        package: String,
        /// The side-effectful module that would fall out of the cold-start
        /// load set.
        parent: String,
        /// Its modeled source file.
        file: String,
    },
    /// A function outside the subtree touches an attribute of a deferred
    /// module before (or without) the first call that would trigger the
    /// inserted import.
    ImportTimeTouch {
        /// The candidate package.
        package: String,
        /// The function containing the early touch.
        function: String,
        /// The touched module.
        module: String,
        /// File of the touching function.
        file: String,
        /// Line of the touch statement.
        line: u32,
    },
    /// Deferring the boundary imports would close a cycle among deferred
    /// import edges.
    DeferredCycle {
        /// The candidate package.
        package: String,
        /// The cycle as module names, first repeated last.
        cycle: Vec<String>,
        /// File of the import declaration that closes the cycle.
        file: String,
        /// Line of that declaration.
        line: u32,
    },
}

impl SafetyViolation {
    /// The stable lint id diagnostics for this violation carry.
    pub fn lint_id(&self) -> &'static str {
        match self {
            SafetyViolation::SideEffectfulModule { .. } => "deferral-side-effects",
            SafetyViolation::ParentSideEffects { .. } => "deferral-parent-side-effects",
            SafetyViolation::ImportTimeTouch { .. } => "deferral-touch-before-call",
            SafetyViolation::DeferredCycle { .. } => "deferral-cycle",
        }
    }

    /// `(file, line)` the violation anchors to.
    pub fn span(&self) -> (&str, u32) {
        match self {
            SafetyViolation::SideEffectfulModule { file, .. }
            | SafetyViolation::ParentSideEffects { file, .. } => (file, 1),
            SafetyViolation::ImportTimeTouch { file, line, .. }
            | SafetyViolation::DeferredCycle { file, line, .. } => (file, *line),
        }
    }
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::SideEffectfulModule {
                package, module, ..
            } => write!(
                f,
                "deferring `{package}` would postpone import-time side effects of `{module}`"
            ),
            SafetyViolation::ParentSideEffects {
                package, parent, ..
            } => write!(
                f,
                "deferring `{package}` would postpone side effects of ancestor package \
                 `{parent}`, which only loads eagerly through this boundary"
            ),
            SafetyViolation::ImportTimeTouch {
                package,
                function,
                module,
                ..
            } => write!(
                f,
                "function `{function}` touches `{module}` before the first call that would \
                 import deferred `{package}`"
            ),
            SafetyViolation::DeferredCycle { package, cycle, .. } => write!(
                f,
                "deferring `{package}` closes a deferred-import cycle: {}",
                cycle.join(" -> ")
            ),
        }
    }
}

/// One global import a package deferral would flip: `(importer, target,
/// line)`.
pub type BoundaryImport = (ModuleId, ModuleId, u32);

/// Global import declarations crossing from outside `package` into it:
/// `(importer, target, line)` triples. These are exactly the edges the
/// optimizer would flip to [`ImportMode::Deferred`].
pub fn boundary_imports(app: &Application, package: &str) -> Vec<BoundaryImport> {
    let index = ModuleIndex::build(app);
    index.boundary_imports(app, &index.tree().package(app, package))
}

/// Proves the deferral of every global boundary import into `package` safe,
/// or returns the first violation found (checked in the order side effects,
/// parent side effects, touch-before-call, deferred cycle).
///
/// A package with no global boundary imports verifies trivially: deferring
/// nothing changes nothing. This builds a [`ModuleIndex`] for one query;
/// callers verifying several packages of one application build the index
/// once and call [`ModuleIndex::verify_deferral`].
///
/// # Errors
///
/// Returns the [`SafetyViolation`] that makes the deferral unsound.
pub fn verify_deferral(app: &Application, package: &str) -> Result<(), SafetyViolation> {
    ModuleIndex::build(app).verify_deferral(app, package)
}

/// Audits an import that is *already* deferred in the application as
/// written: its lazy-load closure must not contain a side-effectful module
/// that no handler loads eagerly, and no function of the importer may touch
/// the target's subtree before its first call into it. Builds a
/// [`ModuleIndex`] for one query, like [`verify_deferral`].
///
/// # Errors
///
/// Returns the violation the deployed deferral commits.
pub fn verify_deferred_import(
    app: &Application,
    importer: ModuleId,
    target: ModuleId,
) -> Result<(), SafetyViolation> {
    ModuleIndex::build(app).verify_deferred_import(app, importer, target)
}

impl ModuleIndex {
    /// Global imports crossing from outside `package` into it, in
    /// [`Application::all_imports`] order (see [`boundary_imports`]).
    pub fn boundary_imports(
        &self,
        app: &Application,
        package: &Package<'_>,
    ) -> Vec<BoundaryImport> {
        let mut crossing: Vec<(ModuleId, u32)> = self
            .imports_into(package)
            .iter()
            .copied()
            .filter(|(importer, _)| !self.tree().contains(package, *importer))
            .collect();
        crossing.sort_unstable();
        crossing
            .into_iter()
            .map(|(importer, slot)| {
                let decl = app.imports_of(importer)[slot as usize];
                (importer, decl.target, decl.line)
            })
            .collect()
    }

    /// [`verify_deferral`] against this index.
    ///
    /// # Errors
    ///
    /// Returns the [`SafetyViolation`] that makes the deferral unsound.
    pub fn verify_deferral(&self, app: &Application, package: &str) -> Result<(), SafetyViolation> {
        self.deferral_boundary(app, package).map(drop)
    }

    /// Verifies the deferral of `package` like [`verify_deferral`] and, when
    /// it is safe, returns the boundary imports it flips (empty when there
    /// is nothing to defer).
    ///
    /// # Errors
    ///
    /// Returns the [`SafetyViolation`] that makes the deferral unsound.
    pub fn deferral_boundary(
        &self,
        app: &Application,
        package: &str,
    ) -> Result<Vec<BoundaryImport>, SafetyViolation> {
        self.package_deferral_boundary(app, &self.tree().package(app, package))
    }

    /// [`Self::deferral_boundary`] of a package already resolved against
    /// this index's tree.
    pub(crate) fn package_deferral_boundary(
        &self,
        app: &Application,
        package: &Package<'_>,
    ) -> Result<Vec<BoundaryImport>, SafetyViolation> {
        let boundary = self.boundary_imports(app, package);
        if !boundary.is_empty() {
            self.verify_boundary(app, package, &boundary)?;
        }
        Ok(boundary)
    }

    fn verify_boundary(
        &self,
        app: &Application,
        package: &Package<'_>,
        boundary: &[BoundaryImport],
    ) -> Result<(), SafetyViolation> {
        // 1. Side-effectful module anywhere in the deferred subtree.
        let first_noisy = self
            .tree()
            .members(package)
            .iter()
            .copied()
            .filter(|m| app.module(*m).side_effectful())
            .min();
        if let Some(m) = first_noisy {
            let module = app.module(m);
            return Err(SafetyViolation::SideEffectfulModule {
                package: package.path().to_string(),
                module: module.name().to_string(),
                file: module.file().to_string(),
            });
        }

        // 2. Parent-package side effects: diff the parent-aware cold-start
        //    load set before (the index's as-written closure) and after
        //    flipping the boundary edges. Any side-effectful module that
        //    leaves the set — outside the subtree, which step 1 already
        //    cleared — only loaded through this boundary.
        if !self.eager_side_effects().is_empty() {
            let after = self.closure(app, self.roots(), |m, d| {
                d.mode.is_global() && !self.crosses_into(package, m, d.target)
            });
            if let Some(&m) = self.eager_side_effects().iter().find(|m| !after[m.index()]) {
                let module = app.module(m);
                return Err(SafetyViolation::ParentSideEffects {
                    package: package.path().to_string(),
                    parent: module.name().to_string(),
                    file: module.file().to_string(),
                });
            }
        }

        // 3. Import-time touch before the first in-package call. The rewrite
        //    puts `import pkg...` at the first call site, so a touch that
        //    runs earlier (or runs with no call at all) reads an unbound
        //    name. Only functions touching the package can commit one.
        let mut touching = self.touching(package).to_vec();
        touching.sort_unstable();
        touching.dedup();
        for f in touching {
            let function = app.function(f);
            if self.tree().contains(package, function.module()) {
                continue;
            }
            if let Some((touched, line)) = self.touch_before_call(app, function.body(), package) {
                return Err(SafetyViolation::ImportTimeTouch {
                    package: package.path().to_string(),
                    function: function.name().to_string(),
                    module: app.module(touched).name().to_string(),
                    file: app.module(function.module()).file().to_string(),
                    line,
                });
            }
        }

        // 4. Deferred-import cycle: with the boundary flipped, is there a
        //    path from any boundary target back to its importer over
        //    deferred edges? Boundary edges all point into the package, so
        //    such a path has to leave it over an already-deferred import.
        if self.tree().members(package).iter().any(|m| self.defers(*m)) {
            for &(importer, target, line) in boundary {
                if let Some(path) = self.deferred_path(app, package, target, importer) {
                    let mut cycle = vec![app.module(importer).name().to_string()];
                    cycle.extend(path.iter().map(|m| app.module(*m).name().to_string()));
                    return Err(SafetyViolation::DeferredCycle {
                        package: package.path().to_string(),
                        cycle,
                        file: app.module(importer).file().to_string(),
                        line,
                    });
                }
            }
        }

        Ok(())
    }

    /// [`verify_deferred_import`] against this index.
    ///
    /// # Errors
    ///
    /// Returns the violation the deployed deferral commits.
    pub fn verify_deferred_import(
        &self,
        app: &Application,
        importer: ModuleId,
        target: ModuleId,
    ) -> Result<(), SafetyViolation> {
        let package = self.tree().package(app, app.module(target).name());

        // What the deferred import would load when it fires (parents
        // included), minus what every handler already loads at cold start.
        let lazy = self.closure(app, &[target], |_, d| d.mode.is_global());
        let eager = self.eager();
        let hidden = self
            .side_effects()
            .iter()
            .find(|m| lazy[m.index()] && !eager[m.index()]);
        if let Some(&m) = hidden {
            let module = app.module(m);
            let (name, file) = (module.name().to_string(), module.file().to_string());
            let package_path = package.path().to_string();
            return Err(if self.tree().contains(&package, m) {
                SafetyViolation::SideEffectfulModule {
                    package: package_path,
                    module: name,
                    file,
                }
            } else {
                SafetyViolation::ParentSideEffects {
                    package: package_path,
                    parent: name,
                    file,
                }
            });
        }

        // Touch-before-call inside the importer module's own functions.
        for &f in self.defined_in(importer) {
            let function = app.function(f);
            if let Some((touched, line)) = self.touch_before_call(app, function.body(), &package) {
                return Err(SafetyViolation::ImportTimeTouch {
                    package: package.path().to_string(),
                    function: function.name().to_string(),
                    module: app.module(touched).name().to_string(),
                    file: app.module(importer).file().to_string(),
                    line,
                });
            }
        }

        Ok(())
    }

    /// Walks `body` in statement order (branch bodies inline, since a
    /// branch may statically execute) and reports the first `Touch` of a
    /// `package` member not preceded by a call into the package.
    fn touch_before_call(
        &self,
        app: &Application,
        body: &[Stmt],
        package: &Package<'_>,
    ) -> Option<(ModuleId, u32)> {
        fn walk(
            tree: &PackageTree,
            app: &Application,
            stmts: &[Stmt],
            package: &Package<'_>,
            called: &mut bool,
        ) -> Option<(ModuleId, u32)> {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::Touch(m) if tree.contains(package, *m) && !*called => {
                        return Some((*m, stmt.line));
                    }
                    StmtKind::Call(site) => {
                        if tree.contains(package, app.function(site.target).module()) {
                            *called = true;
                        }
                    }
                    StmtKind::Branch { body, .. } => {
                        // A branch's touch may execute while its own calls
                        // may not have; treat calls inside the branch as
                        // satisfying only statements after them inside
                        // that branch.
                        let mut inner = *called;
                        if let Some(hit) = walk(tree, app, body, package, &mut inner) {
                            return Some(hit);
                        }
                    }
                    StmtKind::Touch(_) | StmtKind::Work(_) => {}
                }
            }
            None
        }
        let mut called = false;
        walk(self.tree(), app, body, package, &mut called)
    }

    /// Whether the edge `importer -> target` crosses from outside `package`
    /// into it.
    fn crosses_into(&self, package: &Package<'_>, importer: ModuleId, target: ModuleId) -> bool {
        !self.tree().contains(package, importer) && self.tree().contains(package, target)
    }

    /// DFS for a path `from -> ... -> to` over deferred edges, counting the
    /// edges crossing into `package` as deferred; returns the node sequence
    /// starting at `from` and ending at `to`.
    fn deferred_path(
        &self,
        app: &Application,
        package: &Package<'_>,
        from: ModuleId,
        to: ModuleId,
    ) -> Option<Vec<ModuleId>> {
        fn dfs(
            index: &ModuleIndex,
            app: &Application,
            package: &Package<'_>,
            node: ModuleId,
            to: ModuleId,
            visited: &mut [bool],
            path: &mut Vec<ModuleId>,
        ) -> bool {
            visited[node.index()] = true;
            path.push(node);
            if node == to {
                return true;
            }
            for decl in app.imports_of(node) {
                let deferred = decl.mode == ImportMode::Deferred
                    || index.crosses_into(package, node, decl.target);
                if deferred
                    && !visited[decl.target.index()]
                    && dfs(index, app, package, decl.target, to, visited, path)
                {
                    return true;
                }
            }
            path.pop();
            false
        }
        let mut visited = vec![false; app.modules().len()];
        let mut path = Vec::new();
        dfs(self, app, package, from, to, &mut visited, &mut path).then_some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{CallKind, CallSite, Stmt, StmtKind};
    use slimstart_simcore::time::SimDuration;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler -> lib (global), lib -> lib.sub (global); `sfx` controls
    /// whether lib.sub.noisy is side-effectful.
    fn two_level_app(sfx: bool) -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(5), 0, false, lib);
        let sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
        let noisy = b.add_library_module("lib.sub.noisy", ms(3), 0, sfx, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, sub, 1, ImportMode::Global).unwrap();
        b.add_import(sub, noisy, 1, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn clean_subtree_verifies() {
        let app = two_level_app(false);
        assert_eq!(verify_deferral(&app, "lib.sub"), Ok(()));
    }

    #[test]
    fn side_effectful_subtree_is_rejected() {
        let app = two_level_app(true);
        let err = verify_deferral(&app, "lib.sub").unwrap_err();
        assert_eq!(err.lint_id(), "deferral-side-effects");
        assert!(matches!(
            err,
            SafetyViolation::SideEffectfulModule { ref module, .. } if module == "lib.sub.noisy"
        ));
    }

    #[test]
    fn no_boundary_is_trivially_safe() {
        let app = two_level_app(true);
        // Nothing outside `lib` imports `lib.sub.noisy` directly, and
        // "lib.absent" names nothing: zero boundary imports, vacuous proof.
        assert_eq!(verify_deferral(&app, "lib.absent"), Ok(()));
    }

    /// handler imports lib.sub directly; the side-effectful lib root is
    /// loaded only implicitly, as lib.sub's parent — the case an
    /// import-edge-only subtree check cannot see.
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
    fn implicit_parent_side_effects_are_rejected() {
        let app = implicit_parent_app();
        let err = verify_deferral(&app, "lib.sub").unwrap_err();
        assert_eq!(err.lint_id(), "deferral-parent-side-effects");
        assert!(matches!(
            err,
            SafetyViolation::ParentSideEffects { ref parent, .. } if parent == "lib"
        ));
    }

    #[test]
    fn touch_before_call_is_rejected() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(5), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let api = b.add_function("lib.api", root, 1, vec![]);
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
                    kind: StmtKind::Call(CallSite {
                        target: api,
                        kind: CallKind::Direct,
                    }),
                },
            ],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let err = verify_deferral(&app, "lib").unwrap_err();
        assert_eq!(err.lint_id(), "deferral-touch-before-call");
        assert!(matches!(
            err,
            SafetyViolation::ImportTimeTouch { line: 5, .. }
        ));
    }

    #[test]
    fn touch_after_call_is_fine() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(5), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let api = b.add_function("lib.api", root, 1, vec![]);
        let f = b.add_function(
            "main",
            h,
            4,
            vec![
                Stmt {
                    line: 5,
                    kind: StmtKind::Call(CallSite {
                        target: api,
                        kind: CallKind::Direct,
                    }),
                },
                Stmt {
                    line: 6,
                    kind: StmtKind::Touch(root),
                },
            ],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert_eq!(verify_deferral(&app, "lib"), Ok(()));
    }

    #[test]
    fn deferred_cycle_is_rejected() {
        let mut b = AppBuilder::new("t");
        let la = b.add_library("liba");
        let lb = b.add_library("libb");
        let h = b.add_app_module("handler", ms(1), 0);
        let a = b.add_library_module("liba", ms(2), 0, false, la);
        let bm = b.add_library_module("libb", ms(2), 0, false, lb);
        b.add_import(h, a, 2, ImportMode::Global).unwrap();
        b.add_import(h, bm, 3, ImportMode::Global).unwrap();
        // libb -> liba crosses into the candidate; liba -> libb is already
        // deferred. Flipping the boundary closes libb -> liba -> libb.
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
    fn deployed_deferred_import_with_hidden_side_effects_is_flagged() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(5), 0, true, lib);
        let sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
        b.add_import(h, sub, 2, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let err = verify_deferred_import(&app, h, sub).unwrap_err();
        assert_eq!(err.lint_id(), "deferral-parent-side-effects");
    }

    #[test]
    fn deployed_deferred_import_with_eager_cover_is_fine() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(5), 0, true, lib);
        let sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
        // The side-effectful root *also* loads eagerly via a global import,
        // so the deferred lib.sub adds nothing unsound.
        b.add_import(h, root, 1, ImportMode::Global).unwrap();
        b.add_import(h, sub, 2, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert_eq!(verify_deferred_import(&app, h, sub), Ok(()));
    }

    #[test]
    fn violation_spans_and_display() {
        let app = implicit_parent_app();
        let err = verify_deferral(&app, "lib.sub").unwrap_err();
        let (file, line) = err.span();
        assert_eq!(file, "lib/__init__.py");
        assert_eq!(line, 1);
        let text = err.to_string();
        assert!(text.contains("lib.sub"), "{text}");
        assert!(text.contains("ancestor"), "{text}");
    }

    /// handler imports lib.sub.deep globally; `lib` is side-effectful and
    /// no `lib.sub` module exists. The runtime still loads `lib` before
    /// `lib.sub.deep`, so both deferrals would postpone its side effects.
    fn gap_app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(5), 0, true, lib);
        let deep = b.add_library_module("lib.sub.deep", ms(3), 0, false, lib);
        b.add_import(h, deep, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn parent_climb_crosses_missing_intermediate_packages() {
        let app = gap_app();
        for package in ["lib.sub", "lib.sub.deep"] {
            let err = verify_deferral(&app, package).unwrap_err();
            assert!(
                matches!(
                    err,
                    SafetyViolation::ParentSideEffects { ref parent, .. } if parent == "lib"
                ),
                "{package}: {err:?}"
            );
        }
        // The deployed form of the same deferral is an error too.
        let mut deployed = app.clone();
        let h = app.module_by_name("handler").unwrap();
        let deep = app.module_by_name("lib.sub.deep").unwrap();
        deployed.set_import_mode(h, deep, ImportMode::Deferred);
        let err = verify_deferred_import(&deployed, h, deep).unwrap_err();
        assert_eq!(err.lint_id(), "deferral-parent-side-effects");
    }
}
