//! Shared analysis context: precomputed views over the application model.
//!
//! The context carries a [`ModuleIndex`], the module-graph index every
//! pass and the deferral-safety verifier share, built around the
//! application's [`PackageTree`]. Its eager-load closure mirrors the
//! runtime (`pyrt`) exactly: loading a module first loads every *existing*
//! dotted-prefix ancestor — whether or not an import declaration names
//! them, and skipping prefixes no module carries — and then executes its
//! global imports transitively. `Application::eager_load_set` follows
//! import edges only, so it misses implicitly-loaded parents; safety
//! verification must not.

use std::ops::Range;

use slimstart_appmodel::library::{Package, PackageTree};
use slimstart_appmodel::{Application, FunctionId, ImportDecl, ModuleId};

use crate::usage::ObservedUsage;

/// Precomputed state shared by all passes of one analyzer run.
pub struct AnalysisContext<'a> {
    /// The application under analysis.
    pub app: &'a Application,
    /// Its module-graph index, which holds its package tree.
    pub index: ModuleIndex,
    /// Profile-observed usage, when a profile is available (required by the
    /// over-approximation auditor; ignored by the structural passes).
    pub usage: Option<&'a ObservedUsage>,
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context for `app`.
    pub fn new(app: &'a Application, usage: Option<&'a ObservedUsage>) -> AnalysisContext<'a> {
        AnalysisContext::with_index(app, usage, ModuleIndex::build(app))
    }

    /// Builds the context for `app` around an index already built from it.
    pub(crate) fn with_index(
        app: &'a Application,
        usage: Option<&'a ObservedUsage>,
        index: ModuleIndex,
    ) -> AnalysisContext<'a> {
        AnalysisContext { app, index, usage }
    }

    /// The union of the eager closures of every handler's module — the set
    /// of modules the runtime loads at cold start, for any entry point —
    /// as one flag per module index.
    pub fn eager_closure_all_handlers(&self) -> &[bool] {
        self.index.eager()
    }
}

/// Items grouped into rows, stored flat: the rows `lo..hi` are one slice.
#[derive(Debug, Clone)]
struct Grouped<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Grouped<T> {
    /// Groups `(row, item)` pairs into `rows` rows, keeping the pairs'
    /// order within each row.
    fn build(rows: usize, mut pairs: Vec<(u32, T)>) -> Grouped<T> {
        pairs.sort_by_key(|(row, _)| *row);
        let mut start = vec![0u32; rows + 1];
        for (row, _) in &pairs {
            start[*row as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        Grouped {
            start,
            items: pairs.into_iter().map(|(_, item)| item).collect(),
        }
    }

    /// The items of `rows`.
    fn rows(&self, rows: Range<u32>) -> &[T] {
        &self.items
            [self.start[rows.start as usize] as usize..self.start[rows.end as usize] as usize]
    }
}

/// The module-graph index of one application version: built once, then
/// shared by every pass and verifier call over that version.
///
/// It holds the application's [`PackageTree`] (each module's nearest
/// existing dotted-prefix ancestor, and the modules in package-tree order,
/// so "module `m` lies in package `P`" is a range test, see [`Package`]),
/// the handler root modules, the as-written all-handlers eager closure,
/// and per-package groupings of the incoming import edges, touching
/// functions and defining functions that the verifier reads instead of
/// scanning the whole application. The groupings' rows are package-tree
/// positions.
///
/// Import modes are part of what it indexes, so an index describes exactly
/// the application it was built from: pass that same application to every
/// method, and rebuild the index after flipping an import.
#[derive(Debug, Clone)]
pub struct ModuleIndex {
    /// The application's package tree.
    tree: PackageTree,
    /// The module of each handler's function, in handler order.
    roots: Vec<ModuleId>,
    /// The as-written all-handlers eager closure, per module index.
    eager: Vec<bool>,
    /// Side-effectful modules, in module-index order.
    side_effects: Vec<ModuleId>,
    /// Side-effectful modules in `eager`, in module-index order.
    eager_side_effects: Vec<ModuleId>,
    /// Modules with at least one deferred import, per module index.
    defers: Vec<bool>,
    /// Global imports as `(importer, declaration slot)`, grouped by the
    /// target's position.
    incoming: Grouped<(ModuleId, u32)>,
    /// Functions containing a `Touch` of a module, grouped by the touched
    /// module's position (a function appears once per touch).
    touchers: Grouped<FunctionId>,
    /// Functions grouped by their defining module's position.
    defined: Grouped<FunctionId>,
}

impl ModuleIndex {
    /// Indexes `app`.
    pub fn build(app: &Application) -> ModuleIndex {
        let modules = app.modules();
        let n = modules.len();
        let tree = app.package_tree();

        let mut incoming = Vec::new();
        let mut defers = vec![false; n];
        for (i, deferring) in defers.iter_mut().enumerate() {
            let importer = ModuleId::from_index(i);
            for (slot, decl) in app.imports_of(importer).iter().enumerate() {
                if decl.mode.is_global() {
                    incoming.push((tree.position(decl.target), (importer, slot as u32)));
                } else {
                    *deferring = true;
                }
            }
        }

        let mut touchers = Vec::new();
        let mut defined = Vec::with_capacity(app.functions().len());
        for (i, function) in app.functions().iter().enumerate() {
            let f = FunctionId::from_index(i);
            defined.push((tree.position(function.module()), f));
            for m in function.touched_modules() {
                touchers.push((tree.position(m), f));
            }
        }

        let mut index = ModuleIndex {
            tree,
            roots: app
                .handlers()
                .iter()
                .map(|h| app.function(h.function()).module())
                .collect(),
            eager: Vec::new(),
            side_effects: (0..n)
                .filter(|i| modules[*i].side_effectful())
                .map(ModuleId::from_index)
                .collect(),
            eager_side_effects: Vec::new(),
            defers,
            incoming: Grouped::build(n, incoming),
            touchers: Grouped::build(n, touchers),
            defined: Grouped::build(n, defined),
        };
        index.eager = index.closure(app, &index.roots, |_, d| d.mode.is_global());
        index.eager_side_effects = index
            .side_effects
            .iter()
            .copied()
            .filter(|m| index.eager[m.index()])
            .collect();
        index
    }

    /// The application's package tree.
    pub fn tree(&self) -> &PackageTree {
        &self.tree
    }

    /// The module of each handler's function, in handler order.
    pub(crate) fn roots(&self) -> &[ModuleId] {
        &self.roots
    }

    /// The as-written all-handlers eager closure, one flag per module index.
    pub fn eager(&self) -> &[bool] {
        &self.eager
    }

    /// The parent-aware eager-load closure from every module in `roots`,
    /// in one traversal, where `is_global` decides whether an import edge
    /// participates (pass the declaration's real mode to model the app as
    /// written, or override edges to simulate a hypothetical deferral
    /// without cloning the application).
    ///
    /// Returns one flag per module index.
    pub fn closure<F>(&self, app: &Application, roots: &[ModuleId], is_global: F) -> Vec<bool>
    where
        F: Fn(ModuleId, &ImportDecl) -> bool,
    {
        let mut loaded = vec![false; app.modules().len()];
        let mut stack = roots.to_vec();
        while let Some(m) = stack.pop() {
            if loaded[m.index()] {
                continue;
            }
            loaded[m.index()] = true;
            // Ancestor packages load first, exactly as the runtime's
            // load-with-parents does — even without an import edge to them.
            if let Some(p) = self.tree.parent(m) {
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

    /// Whether `module` has at least one deferred import.
    pub(crate) fn defers(&self, module: ModuleId) -> bool {
        self.defers[module.index()]
    }

    /// Side-effectful modules, in module-index order.
    pub(crate) fn side_effects(&self) -> &[ModuleId] {
        &self.side_effects
    }

    /// Side-effectful modules of the as-written eager closure, in
    /// module-index order.
    pub(crate) fn eager_side_effects(&self) -> &[ModuleId] {
        &self.eager_side_effects
    }

    /// Global imports into `package`'s members as `(importer, declaration
    /// slot)`, grouped by target, importers inside the package included.
    pub(crate) fn imports_into(&self, package: &Package<'_>) -> &[(ModuleId, u32)] {
        self.incoming.rows(package.positions())
    }

    /// Functions touching a member of `package`, grouped by the touched
    /// module, with repeats.
    pub(crate) fn touching(&self, package: &Package<'_>) -> &[FunctionId] {
        self.touchers.rows(package.positions())
    }

    /// Functions defined in `module`, in function-index order.
    pub(crate) fn defined_in(&self, module: ModuleId) -> &[FunctionId] {
        let p = self.tree.position(module);
        self.defined.rows(p..p + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::ImportMode;
    use slimstart_pyrt::{LoaderPlan, Process};
    use slimstart_simcore::rng::SimRng;
    use slimstart_simcore::time::SimDuration;
    use std::sync::Arc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler imports lib.sub.deep directly; lib and lib.sub have no
    /// import edges pointing at them at all.
    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(5), 0, true, lib);
        let _sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
        let deep = b.add_library_module("lib.sub.deep", ms(3), 0, false, lib);
        b.add_import(h, deep, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    fn global(_: ModuleId, d: &ImportDecl) -> bool {
        d.mode.is_global()
    }

    #[test]
    fn closure_includes_implicit_parents() {
        let app = app();
        let index = ModuleIndex::build(&app);
        let h = app.module_by_name("handler").unwrap();
        let closure = index.closure(&app, &[h], global);
        for name in ["handler", "lib", "lib.sub", "lib.sub.deep"] {
            let m = app.module_by_name(name).unwrap();
            assert!(closure[m.index()], "{name} must be in the eager closure");
        }
        // The import-edge-only closure misses the parents — the exact gap
        // this module exists to close.
        let edge_only = app.eager_load_set(h);
        let root = app.module_by_name("lib").unwrap();
        assert!(!edge_only.contains(&root));
    }

    #[test]
    fn deferred_override_removes_subtree() {
        let app = app();
        let index = ModuleIndex::build(&app);
        let h = app.module_by_name("handler").unwrap();
        let deep = app.module_by_name("lib.sub.deep").unwrap();
        let closure = index.closure(&app, &[h], |_, d| d.mode.is_global() && d.target != deep);
        assert!(closure[h.index()]);
        for name in ["lib", "lib.sub", "lib.sub.deep"] {
            let m = app.module_by_name(name).unwrap();
            assert!(!closure[m.index()], "{name} must leave the closure");
        }
    }

    #[test]
    fn all_handlers_union() {
        let app = app();
        let ctx = AnalysisContext::new(&app, None);
        let loaded = ctx.eager_closure_all_handlers();
        assert_eq!(loaded.iter().filter(|x| **x).count(), 4);
    }

    /// A random app over dotted names drawn from a small alphabet, so
    /// missing intermediate packages and sibling prefixes are common.
    fn random_gappy_app(seed: u64) -> Application {
        let mut rng = SimRng::seed_from(seed);
        let parts = ["a", "b", "ab", "c"];
        let mut b = AppBuilder::new(format!("gappy-{seed}"));
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let mut ids = Vec::new();
        for _ in 0..(4 + rng.next_below(20)) {
            let depth = 1 + rng.next_below(4);
            let mut name = "lib".to_string();
            for _ in 0..depth {
                name.push('.');
                name.push_str(parts[rng.next_below(parts.len())]);
            }
            if b.module_by_name(&name).is_none() {
                ids.push(b.add_library_module(name, ms(1), 0, false, lib));
            }
        }
        if rng.chance(0.5) {
            ids.push(b.add_library_module("lib", ms(1), 0, false, lib));
        }
        // Forward edges only, so the global graph stays acyclic.
        for (i, &m) in ids.iter().enumerate() {
            if rng.chance(0.4) {
                b.add_import(h, m, 1 + i as u32, ImportMode::Global)
                    .unwrap();
            }
            for &t in &ids[i + 1..] {
                if rng.chance(0.15) {
                    let mode = if rng.chance(0.3) {
                        ImportMode::Deferred
                    } else {
                        ImportMode::Global
                    };
                    b.add_import(m, t, 1, mode).unwrap();
                }
            }
        }
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn closure_equals_the_runtime_loader_on_apps_with_gaps() {
        let mut gaps = 0;
        for seed in 0..200u64 {
            let app = Arc::new(random_gappy_app(seed));
            let index = ModuleIndex::build(&app);
            let plan = Arc::new(LoaderPlan::build(&app));
            for i in 0..app.modules().len() {
                let m = ModuleId::from_index(i);
                let ours = index.closure(&app, &[m], global);
                // The oracle is the loader itself: what a cold start of `m`
                // in a fresh process actually loads.
                let mut process = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
                process.cold_start(m).unwrap();
                for (j, flag) in ours.iter().enumerate() {
                    assert_eq!(
                        *flag,
                        process.is_loaded(ModuleId::from_index(j)),
                        "seed {seed}: closure of `{}` disagrees on `{}`",
                        app.module(m).name(),
                        app.module(ModuleId::from_index(j)).name()
                    );
                }
                let name = app.module(m).name();
                if let Some((prefix, _)) = name.rsplit_once('.') {
                    if app.module_by_name(prefix).is_none() {
                        gaps += 1;
                    }
                }
            }
        }
        assert!(
            gaps >= 100,
            "only {gaps} modules sit below a missing package"
        );
    }
}
